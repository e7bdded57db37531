package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/quorum"
)

// FuzzDMApply drives random request sequences through a DM's apply — a few
// top-level transactions, their subtransactions, three items — and after
// every step holds the DM to refDM, a reference that visits every hosted
// replica on every commit, abort and probe and keeps every resolution in
// full forever. Responses, replica state, outcomes, and the holds checks
// of lease renewal and the resolution probe must all agree. The DM runs
// with a tiny retention cap, so most outcomes it answers from are
// compacted, and some steps put it through a snapshot round trip.
func FuzzDMApply(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 5, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 3, 1, 1, 0, 0, 5, 1, 0, 0, 0, 2, 1, 0, 2, 2})
	f.Add([]byte{0, 2, 2, 0, 1, 2, 2, 2, 0, 1, 4, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 2, 2, 0, 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		b := make([]byte, 300)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step re-checks every id seen so far: cap the sequence so a
		// grown input cannot make one execution quadratic in its length.
		if len(data) > 5*maxFuzzSteps {
			data = data[:5*maxFuzzSteps]
		}
		h := newDMApplyHarness()
		for step := 0; len(data) >= 5; step++ {
			op, top := dmFuzzOp(step, data[:5])
			data = data[5:]
			h.tops[top] = true
			h.step(t, step, op)
		}
	})
}

// The fuzzed id space. Top-level ids come from families of every shape the
// verdict split must keep apart — "t00"+n and "t"+n differ only in leading
// zeros, "solo" has no number — and each step draws from three numbers of
// a window that slides with the step count, across 64-id words, so fresh
// transactions keep arriving while earlier ones are still open.
var (
	fuzzFamilies = []string{"c1.t", "c2.x", "t00", "t", "solo"}
	fuzzPaths    = []string{"", "/0", "/1", "/0/1"}
	fuzzItems    = []string{"x", "y", "z"}
	fuzzCfg      = quorum.Majority([]string{"dm0"})
)

const (
	fuzzRetention = 2
	maxFuzzSteps  = 200
)

func fuzzTop(step int, b byte) TxnID {
	fam := fuzzFamilies[int(b)%len(fuzzFamilies)]
	if fam == "solo" {
		return TxnID(fam)
	}
	return TxnID(fmt.Sprintf("%s%d", fam, step/8*23+int(b)/len(fuzzFamilies)%3))
}

// dmFuzzOp turns five input bytes into one request, or into nil for a
// snapshot round trip, and names the top-level transaction drawn.
func dmFuzzOp(step int, b []byte) (req any, top TxnID) {
	top = fuzzTop(step, b[1])
	txn := top + TxnID(fuzzPaths[int(b[2]>>4)%len(fuzzPaths)])
	item := fuzzItems[int(b[2]&0xf)%len(fuzzItems)]
	seq := int(b[3] % 4)
	v := int(b[4])
	subs := []TxnID(nil)
	for i, p := range fuzzPaths[1:] {
		if b[3]&(1<<(i+2)) != 0 {
			subs = append(subs, top+TxnID(p))
		}
	}
	final := map[string]int{item: v % 8}
	switch b[0] % 11 {
	case 0:
		lock := LockRead
		if v%2 == 1 {
			lock = LockWrite
		}
		return ReadReq{Txn: txn, Item: item, Lock: lock, Seq: seq}, top
	case 1, 2:
		return WriteReq{Txn: txn, Item: item, VN: v % 8, Val: v, Seq: seq}, top
	case 3:
		return ConfigWriteReq{Txn: txn, Item: item, Gen: v % 4, Cfg: fuzzCfg, Seq: seq}, top
	case 4:
		return ReleaseReq{Txn: txn, Item: item, Seq: seq}, top
	case 5:
		return CommitSubReq{Txn: txn}, top
	case 6:
		return AbortReq{Txn: txn}, top
	case 7:
		return CommitTopReq{Txn: top, Subs: subs, Final: final}, top
	case 8:
		return ReapReq{Txn: txn, Commit: v%2 == 1, Subs: subs}, top
	case 9:
		return PaxosDecisionReq{Txn: top, Commit: v%2 == 1, Subs: subs, Final: final}, top
	default:
		return nil, top
	}
}

type dmApplyHarness struct {
	dm   *dmServer
	ref  *refDM
	tops map[TxnID]bool // every top-level id a request named so far
}

func newDMApplyHarness() *dmApplyHarness {
	var items []ItemSpec
	for _, it := range fuzzItems {
		items = append(items, ItemSpec{Name: it, Initial: 0, Config: fuzzCfg})
	}
	dm := newDMState("dm0", items)
	dm.configureRetention(fuzzRetention)
	ref := &refDM{replicas: map[string]*replica{}, resolved: map[TxnID]resolution{}}
	for _, it := range items {
		ref.replicas[it.Name] = &replica{val: it.Initial, cfg: it.Config, locks: map[TxnID]LockMode{}}
	}
	return &dmApplyHarness{dm: dm, ref: ref, tops: map[TxnID]bool{}}
}

func (h *dmApplyHarness) step(t *testing.T, step int, req any) {
	t.Helper()
	if req == nil {
		snap, err := encodeSnapshot(h.dm)
		if err != nil {
			t.Fatalf("step %d: snapshot: %v", step, err)
		}
		dm := newDMState("dm0", nil)
		if err := restoreSnapshot(dm, snap); err != nil {
			t.Fatalf("step %d: restore: %v", step, err)
		}
		dm.configureRetention(fuzzRetention)
		h.dm = dm
	} else {
		got, gotMut := h.dm.apply(req)
		want, wantMut := h.ref.apply(req)
		if !reflect.DeepEqual(got, want) || gotMut != wantMut {
			t.Fatalf("step %d: %#v\n got  %#v mutated=%v\n want %#v mutated=%v", step, req, got, gotMut, want, wantMut)
		}
	}
	h.compare(t, step, req)
}

// compare holds the DM's whole observable state to the reference's.
func (h *dmApplyHarness) compare(t *testing.T, step int, req any) {
	t.Helper()
	for _, item := range fuzzItems {
		if d := replicaDiff(h.dm.replicas[item], h.ref.replicas[item]); d != "" {
			t.Fatalf("step %d (%#v): item %s: %s", step, req, item, d)
		}
	}
	for top := range h.tops {
		got, gotOK := h.dm.verdict(top)
		want, wantOK := h.ref.resolved[top]
		if gotOK != wantOK || got.committed != want.committed {
			t.Fatalf("step %d (%#v): %s resolved=%v committed=%v, reference resolved=%v committed=%v",
				step, req, top, gotOK, got.committed, wantOK, want.committed)
		}
		if got.subs != nil && !sameTxns(got.subs, want.subs) {
			t.Fatalf("step %d: %s subs %v, reference %v", step, top, got.subs, want.subs)
		}
		holds := h.ref.holds(top)
		if k := h.dm.knowsTxn(top); k != holds {
			t.Fatalf("step %d (%#v): knowsTxn(%s) = %v, reference holds = %v", step, req, top, k, holds)
		}
		raw, _ := h.dm.coordinate(ResolutionProbeReq{Txn: top})
		if p := raw.(ResolutionProbeResp); p.Holds != holds || p.Known != wantOK {
			t.Fatalf("step %d (%#v): probe of %s = %+v, reference holds=%v known=%v", step, req, top, p, holds, wantOK)
		}
		// The index covers every replica the transaction holds state on,
		// and a resolved transaction has no entry at all.
		if _, indexed := h.dm.touched[top]; indexed && wantOK {
			t.Fatalf("step %d: resolved %s still indexed", step, top)
		}
		for name, r := range h.dm.replicas {
			if r.touchedBy(top) && !containsReplica(h.dm.touched[top], r) {
				t.Fatalf("step %d (%#v): %s holds state on %s but the index misses it", step, req, top, name)
			}
		}
	}
}

// touchedBy reports whether any per-transaction state here belongs to
// top's subtree: a lock, a lock phase record, a tombstone, an intention.
func (r *replica) touchedBy(top TxnID) bool {
	for _, m := range []map[TxnID]int{r.lockSeqs, r.lockBorn, r.released} {
		for t := range m {
			if t.Top() == top {
				return true
			}
		}
	}
	return r.holds(top)
}

func containsReplica(rs []*replica, r *replica) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

func sameTxns(a, b []TxnID) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// replicaDiff describes how two replicas differ, treating nil and empty
// maps and slices alike (a snapshot round trip turns one into the other).
func replicaDiff(a, b *replica) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("hosted %v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return ""
	}
	if a.vn != b.vn || !reflect.DeepEqual(a.val, b.val) || a.gen != b.gen || !reflect.DeepEqual(a.cfg, b.cfg) {
		return fmt.Sprintf("committed (%d %v %d) vs (%d %v %d)", a.vn, a.val, a.gen, b.vn, b.val, b.gen)
	}
	if !sameMap(a.locks, b.locks) || !sameMap(a.lockSeqs, b.lockSeqs) || !sameMap(a.lockBorn, b.lockBorn) || !sameMap(a.released, b.released) {
		return fmt.Sprintf("locks %v/%v/%v/%v vs %v/%v/%v/%v", a.locks, a.lockSeqs, a.lockBorn, a.released, b.locks, b.lockSeqs, b.lockBorn, b.released)
	}
	if len(a.intents) != len(b.intents) || (len(a.intents) > 0 && !reflect.DeepEqual(a.intents, b.intents)) {
		return fmt.Sprintf("intents %v vs %v", a.intents, b.intents)
	}
	return ""
}

func sameMap[V comparable](a, b map[TxnID]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// refDM is the reference state machine for FuzzDMApply: apply's
// per-transaction requests as a DM without the index runs them, visiting
// every hosted replica, with every resolution kept in full.
type refDM struct {
	replicas map[string]*replica
	resolved map[TxnID]resolution
}

func (s *refDM) isResolved(t TxnID) bool {
	_, ok := s.resolved[t.Top()]
	return ok
}

func (s *refDM) sortedReplicas() []*replica {
	names := make([]string, 0, len(s.replicas))
	for n := range s.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*replica, len(names))
	for i, n := range names {
		out[i] = s.replicas[n]
	}
	return out
}

// holds is the scan the resolution probe and lease renewal make: a lock or
// intention of top's subtree on any replica.
func (s *refDM) holds(top TxnID) bool {
	for _, r := range s.sortedReplicas() {
		if r.holds(top) {
			return true
		}
	}
	return false
}

func (s *refDM) commit(top TxnID, subs []TxnID) {
	s.resolved[top] = resolution{committed: true, subs: subs}
	committed := map[TxnID]bool{}
	for _, sub := range subs {
		committed[sub] = true
	}
	for _, r := range s.sortedReplicas() {
		r.applyTop(top, committed)
	}
}

func (s *refDM) abort(top TxnID) {
	s.resolved[top] = resolution{}
	for _, r := range s.sortedReplicas() {
		r.drop(top)
	}
}

func (s *refDM) apply(req any) (any, bool) {
	switch q := req.(type) {
	case ReadReq:
		r := s.replicas[q.Item]
		if s.isResolved(q.Txn) || r.tombstoned(q.Txn, q.Seq) {
			return ReadResp{}, false
		}
		if !r.canLock(q.Txn, q.Lock) {
			return ReadResp{Busy: true}, false
		}
		_, held := r.locks[q.Txn]
		r.grant(q.Txn, q.Lock)
		r.noteGrant(q.Txn, q.Seq, held)
		vn, val, gen, cfg := r.view(q.Txn)
		return ReadResp{OK: true, Held: held, VN: vn, Val: val, Gen: gen, Cfg: cfg}, true
	case WriteReq, ConfigWriteReq:
		var txn TxnID
		var item string
		var seq int
		var in intent
		isConfig := false
		if w, ok := q.(WriteReq); ok {
			txn, item, seq = w.Txn, w.Item, w.Seq
			in = intent{owner: w.Txn, vn: w.VN, val: w.Val}
		} else {
			c := q.(ConfigWriteReq)
			txn, item, seq, isConfig = c.Txn, c.Item, c.Seq, true
			in = intent{owner: c.Txn, isConfig: true, gen: c.Gen, cfg: c.Cfg.Clone()}
		}
		r := s.replicas[item]
		if s.isResolved(txn) || r.tombstoned(txn, seq) {
			return WriteResp{}, false
		}
		if !r.canLock(txn, LockWrite) {
			return WriteResp{Busy: true}, false
		}
		_, held := r.locks[txn]
		r.grant(txn, LockWrite)
		r.noteGrant(txn, seq, held)
		if !r.hasIntentCopy(txn, isConfig, in.vn, in.gen) {
			r.intents = append(r.intents, in)
		}
		return WriteResp{OK: true, Held: held}, true
	case ReleaseReq:
		if q.Seq == 0 || s.isResolved(q.Txn) {
			return Ack{OK: true}, false
		}
		s.replicas[q.Item].release(q.Txn, q.Seq)
		return Ack{OK: true}, true
	case CommitSubReq:
		for _, r := range s.sortedReplicas() {
			r.promote(q.Txn)
		}
		return Ack{OK: true}, true
	case AbortReq:
		if q.Txn.Top() == q.Txn {
			s.abort(q.Txn)
			return Ack{OK: true}, true
		}
		for _, r := range s.sortedReplicas() {
			r.drop(q.Txn)
		}
		return Ack{OK: true}, true
	case CommitTopReq:
		if res, ok := s.resolved[q.Txn]; ok {
			return Ack{OK: res.committed}, false
		}
		s.commit(q.Txn, q.Subs)
		return Ack{OK: true}, true
	case ReapReq:
		return s.decide(q.Txn.Top(), q.Commit, q.Subs)
	case PaxosDecisionReq:
		return s.decide(q.Txn.Top(), q.Commit, q.Subs)
	}
	panic(fmt.Sprintf("refDM: unexpected request %T", req))
}

func (s *refDM) decide(top TxnID, commit bool, subs []TxnID) (any, bool) {
	if _, ok := s.resolved[top]; ok {
		return Ack{OK: true}, false
	}
	if commit {
		s.commit(top, subs)
	} else {
		s.abort(top)
	}
	return Ack{OK: true}, true
}
