package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/wire"
)

// wireSamples returns one value of every tagged protocol type, in tag
// order, with every field non-zero so a silently dropped field cannot hide
// behind its zero value.
func wireSamples() []any {
	cfg := quorum.Config{
		R: []quorum.Set{quorum.NewSet("dm0", "dm1"), quorum.NewSet("dm2")},
		W: []quorum.Set{quorum.NewSet("dm1", "dm2")},
	}
	ring := shard.Ring{
		Seed: -7, VNodes: 16, Epoch: 3,
		Groups:    []shard.Group{{Name: "g0", DMs: []string{"dm0", "dm1"}}, {Name: "g1", DMs: []string{"dm2"}}},
		Overrides: map[string]string{"k1": "g1", "k0": "g0"},
	}
	final := map[string]int{"x": 8, "a": -1}
	return []any{
		ReadReq{Txn: "t1/0", Item: "x", Lock: LockWrite, Seq: 3},
		ReadResp{OK: true, Busy: true, Held: true, VN: 6, Val: 13, Gen: 1, Cfg: cfg, Hinted: true},
		WriteReq{Txn: "t1", Item: "x", VN: 7, Val: "forty-two", Seq: 4},
		ConfigWriteReq{Txn: "t2", Item: "y", Gen: 2, Cfg: cfg, Seq: 1},
		WriteResp{OK: true, Busy: true, Held: true},
		ReleaseReq{Txn: "t3", Item: "x", Seq: 2},
		CommitSubReq{Txn: "t1/0"},
		AbortReq{Txn: "t4"},
		CommitTopReq{Txn: "t1", Subs: []TxnID{"t1/0", "t1/1"}, Final: final},
		Ack{OK: true},
		RepairReq{Item: "x", VN: 9, Val: int64(-5), Gen: 1, Cfg: cfg},
		OverloadedResp{DM: "dm2", Expired: true},
		PingReq{Seq: 11},
		InspectReq{Item: "z"},
		InspectResp{OK: true, VN: 4, Val: 2.5, Gen: 1, Cfg: cfg, Locks: 2, Intents: 1},
		RenewLeaseReq{Txn: "t5"},
		ResolutionQueryReq{Txn: "t6", From: "dm0"},
		ResolutionAnswer{Txn: "t6", From: "dm1", Known: true, Committed: true, Subs: []TxnID{"t6/0"}, Active: true, Accepted: true, Cohort: []string{"dm0", "dm1"}},
		HintReadReq{Txn: "t7", Item: "x", Seq: 5, Gen: 1},
		HintMissResp{DM: "dm0", Reason: "expired"},
		HintGrantReq{Item: "x", VN: 3, Gen: 1},
		HintFenceReq{Txn: "t8", Item: "x"},
		ReapReq{Txn: "t9", Commit: true, Subs: []TxnID{"t9/0"}},
		AdoptItemReq{Item: "x", Initial: []byte("seed")},
		RetireItemReq{Item: "x", Epoch: 2, Group: "g1", DMs: []string{"dm3", "dm4"}, Gen: 3, Cfg: cfg},
		WrongShardResp{DM: "dm0", Item: "x", Epoch: 2, Group: "g1", DMs: []string{"dm3"}, Gen: 3, Cfg: cfg},
		RingReq{},
		RingResp{OK: true, Ring: ring},
		RingUpdateReq{Ring: ring},
		PaxosAcceptReq{Txn: "t10", Ballot: 1, Commit: true, Subs: []TxnID{"t10/0"}, Final: final, Cohort: []string{"dm0", "dm1", "dm2"}},
		PaxosAcceptResp{OK: true, Promised: 4, Decided: true, DecCommit: true},
		PaxosPrepareReq{Txn: "t11", Ballot: 5, Cohort: []string{"dm1"}},
		PaxosDecisionReq{Txn: "t12", Commit: true, Subs: []TxnID{"t12/0"}, Final: final},
		PaxosRecoverQuery{Txn: "t13", Ballot: 6, Cohort: []string{"dm0", "dm2"}, From: "dm2"},
		PaxosRecoverPromise{
			Txn: "t14", Ballot: 7, From: "dm1", OK: true, Promised: 7,
			AccBal: 2, AccCommit: true, AccSubs: []TxnID{"t14/0"}, AccFinal: final,
			Decided: true, DecCommit: true, DecSubs: []TxnID{"t14/1"}, DecFinal: map[string]int{"y": 2},
		},
		PaxosRecoverAccept{Txn: "t15", Ballot: 8, Commit: true, Subs: []TxnID{"t15/0"}, Final: final, Cohort: []string{"dm0"}, From: "dm0"},
		PaxosRecoverAccepted{Txn: "t16", Ballot: 9, From: "dm2", OK: true},
		ResolutionProbeReq{Txn: "t17"},
		ResolutionProbeResp{Known: true, Committed: true, Holds: true, Promised: -2, AccBal: 3, AccCommit: true},
		QuarantinedResp{DM: "dm1", Reason: "wal: segment corrupt"},
		RebuildPullReq{For: "dm1", Items: []string{"x", "y"}},
		RebuildPullResp{
			OK: true, From: "dm0",
			Items:    []RebuildItemState{{Item: "x", Has: true, VN: 5, Val: uint64(9), Gen: 1, Cfg: cfg}, {Item: "y", Has: true, VN: 1, Val: true, Gen: 2, Cfg: cfg}},
			Moved:    map[string]WrongShardResp{"y": {DM: "dm0", Item: "y", Epoch: 2, Group: "g1", DMs: []string{"dm3"}, Gen: 3, Cfg: cfg}},
			Resolved: map[TxnID]RebuildResolution{"t1": {Committed: true, Subs: []TxnID{"t1/0"}}},
			Verdicts: []VerdictWord{{Prefix: "c1.t", Block: 3, Known: 0xf0, Committed: 0x30}, {Prefix: "test", Block: -1, Known: 1 << 63}},
			Acceptors: map[TxnID]commit.Acceptor{"t2": {
				Promised: 1, AccBal: 1,
				AccVal: commit.Decision{Commit: true, Subs: []string{"t2/0"}, Final: map[string]int{"x": 5}},
				Cohort: []string{"dm0", "dm1"},
			}},
		},
	}
}

// TestWireRoundTrip encodes every tagged protocol type the way the WAL and
// the TCP frames do, decodes it, and requires the same value back and the
// same bytes on re-encoding — so a field the codec drops, reorders or
// encodes non-canonically (map order) fails here, not on the first real
// socket or log replay.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range wireSamples() {
		t.Run(fmt.Sprintf("%T", m), func(t *testing.T) {
			b, err := wire.Marshal(nil, m)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			out, err := wire.Unmarshal(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(out, m) {
				t.Fatalf("round trip changed the value:\n sent %#v\n got  %#v", m, out)
			}
			again, err := wire.Marshal(nil, out)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("re-encoding changed the bytes:\n first %x\n again %x", b, again)
			}
		})
	}
}

// wireNested lists the msgs.go types that never travel on their own, only
// inside a tagged message.
var wireNested = map[string]string{
	"LockMode":          "an int field of ReadReq",
	"RebuildItemState":  "an element of RebuildPullResp.Items",
	"RebuildResolution": "a value of RebuildPullResp.Resolved",
	"VerdictWord":       "an element of RebuildPullResp.Verdicts",
}

// TestWireTagsCoverMsgs parses msgs.go and fails when a declared message
// type has no tag — or no sample in wireSamples, which would leave it out
// of the round-trip test.
func TestWireTagsCoverMsgs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "msgs.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	sampled := map[string]any{}
	for _, m := range wireSamples() {
		sampled[reflect.TypeOf(m).Name()] = m
	}
	declared := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			name := spec.(*ast.TypeSpec).Name.Name
			if _, nested := wireNested[name]; nested {
				continue
			}
			declared++
			m, ok := sampled[name]
			if !ok {
				t.Errorf("msgs.go declares %s but wireSamples has no value of it", name)
				continue
			}
			var ve *ValueError
			if _, err := wire.Marshal(nil, m); errors.As(err, &ve) {
				t.Errorf("msgs.go declares %s but wire.go gives it no tag: %v", name, err)
			}
		}
	}
	if declared != len(sampled) {
		t.Errorf("msgs.go declares %d message types, wireSamples has %d", declared, len(sampled))
	}
}

// TestWireRingPlacement checks that a ring carried on the wire places every
// key exactly as the ring that was sent: only the exported identity
// travels, and the decoded ring rebuilds its vnode points.
func TestWireRingPlacement(t *testing.T) {
	groups := []shard.Group{
		{Name: "g0", DMs: []string{"dm0"}}, {Name: "g1", DMs: []string{"dm1"}},
		{Name: "g2", DMs: []string{"dm2"}}, {Name: "g3", DMs: []string{"dm3"}},
	}
	r, err := shard.New(11, 64, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.MoveKey("k3", "g2"); err != nil {
		t.Fatal(err)
	}
	b, err := wire.Marshal(nil, RingUpdateReq{Ring: *r})
	if err != nil {
		t.Fatal(err)
	}
	out, err := wire.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(RingUpdateReq).Ring
	if got.Epoch != r.Epoch || got.Seed != r.Seed || got.VNodes != r.VNodes {
		t.Fatalf("identity changed: got %+v want %+v", got, r)
	}
	for _, k := range shard.Keys("k", 256) {
		if a, b := r.Lookup(k), got.Lookup(k); a != b {
			t.Fatalf("key %q: decoded ring places at %q, original at %q", k, b, a)
		}
	}
}

// FuzzMessage holds the message codec to its contract: arbitrary bytes
// decode to a value or fail with a typed error (*wire.VersionError or
// *wire.FormatError), never a panic; and whatever decodes re-encodes to
// bytes that decode and re-encode identically.
func FuzzMessage(f *testing.F) {
	for _, m := range wireSamples() {
		b, err := wire.Marshal(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{wire.Version})
	f.Add([]byte{wire.Version, 0})
	f.Add([]byte{wire.Version, 0xff, 0xff, 0x03})
	f.Add([]byte{0x2c, 0xff, 0x81, 0x03}) // a gob stream's opening bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			var ve *wire.VersionError
			var fe *wire.FormatError
			if !errors.As(err, &ve) && !errors.As(err, &fe) {
				t.Fatalf("decode error is %T, want *wire.VersionError or *wire.FormatError: %v", err, err)
			}
			return
		}
		b1, err := wire.Marshal(nil, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		msg2, err := wire.Unmarshal(b1)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		b2, err := wire.Marshal(nil, msg2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding %T is not stable (err %v):\n %x\n %x", msg, err, b1, b2)
		}
	})
}

// TestRecoveryRejectsOtherFormatVersion writes a log whose record leads
// with a format byte this build does not read — what a log left by the gob
// build looks like — and requires Open to fail with the typed version
// error. The replica must not come up quarantined: after an upgrade every
// replica's log would be "corrupt", and no peer would be left to rebuild
// from.
func TestRecoveryRejectsOtherFormatVersion(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir + "/dm0")
	if err != nil {
		t.Fatal(err)
	}
	old := wire.Version + 1
	if err := log.Append([]byte{old, 3, 1, 't'}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.Config{Seed: 1})
	defer net.Close()
	dms := []string{"dm0"}
	store, err := Open(net, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}, WithDurability(dir))
	if err == nil {
		store.Close()
		t.Fatal("Open recovered a log in another format version")
	}
	var ve *wire.VersionError
	if !errors.As(err, &ve) || ve.Got != old {
		t.Fatalf("Open error %v (%T), want a *wire.VersionError for version %d", err, err, old)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("version %d", old)) {
		t.Fatalf("error %q does not name the format version", err)
	}
}

// TestUnencodableRequestLeavesNoState sends a durable replica a write
// whose value the log cannot carry. The replica must refuse it without
// applying it: no lock, no intention, nothing in memory that no log record
// backs.
func TestUnencodableRequestLeavesNoState(t *testing.T) {
	net, store, _ := openDurable(t, 5)
	defer net.Close()
	defer store.Close()
	// The sim carries any Go value, so the request reaches the replica
	// as built. A replica that never answers it is tolerated here (the
	// call times out); a grant is not.
	wctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	bad := WriteReq{Txn: "tbad", Item: "x", VN: 1, Val: struct{ A int }{1}, Seq: 1}
	if raw, err := store.client.Call(wctx, "dm0", bad); err == nil {
		if w, ok := raw.(WriteResp); ok && w.OK {
			t.Fatalf("replica granted an unloggable write: %+v", w)
		}
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	got, err := store.Inspect(ctx, "dm0", "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Locks != 0 || got.Intents != 0 {
		t.Fatalf("refused write left %d locks and %d intentions behind", got.Locks, got.Intents)
	}
}
