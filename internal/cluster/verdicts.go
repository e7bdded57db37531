package cluster

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Compact verdicts (DESIGN.md §12). A DM must remember the outcome of every
// top-level transaction it ever resolved: late request copies must be
// refused, CommitTopReq retries answered idempotently, and resolution
// inquiries and settle probes answered authoritatively. Once the retention
// cap evicts a resolution record, only its outcome is left, and that
// outcome is two bits in a 64-id word.
//
// Every top-level id splits into a prefix and a trailing decimal number
// (splitTxnID). Ids that share a prefix and whose numbers share n/64 share
// one word, so a client's ids "c1.t0".."c1.t63" cost 16 bytes together.
// Words are sparse — keyed by (prefix, n/64) — so memory follows the
// number of resolved ids, never their magnitude.

// maxVerdictDigits bounds the trailing number: 18 decimal digits always
// fit an int64. Longer digit runs leave their leading digits in the prefix.
const maxVerdictDigits = 18

// splitTxnID splits a top-level id into (prefix, n) such that
// joinTxnID(prefix, n) == t for every id: n is the id's trailing decimal
// number written without leading zeros (they stay in the prefix), and -1
// when the id ends in no digit at all. It never allocates: prefix is a
// substring of t.
func splitTxnID(t TxnID) (prefix string, n int64) {
	s := string(t)
	i := len(s)
	for i > 0 && len(s)-i < maxVerdictDigits && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, -1
	}
	for i < len(s)-1 && s[i] == '0' {
		i++
	}
	for _, c := range []byte(s[i:]) {
		n = n*10 + int64(c-'0')
	}
	return s[:i], n
}

// joinTxnID reverses splitTxnID.
func joinTxnID(prefix string, n int64) TxnID {
	if n < 0 {
		return TxnID(prefix)
	}
	return TxnID(prefix + strconv.FormatInt(n, 10))
}

type verdictKey struct {
	prefix string
	block  int64
}

type verdictBits struct{ known, committed uint64 }

// verdictSet is a DM's compacted outcomes. Entries are pointers so that
// updating a word never rewrites its key: the stored prefix is a private
// copy, never a substring of some request's id.
type verdictSet map[verdictKey]*verdictBits

func verdictSlot(t TxnID) (verdictKey, uint64) {
	p, n := splitTxnID(t)
	return verdictKey{p, n >> 6}, 1 << (uint64(n) & 63)
}

// get reports whether t's outcome is recorded, and the outcome.
func (v verdictSet) get(t TxnID) (known, committed bool) {
	k, bit := verdictSlot(t)
	w := v[k]
	if w == nil {
		return false, false
	}
	return w.known&bit != 0, w.committed&bit != 0
}

// set records t's outcome, overwriting any earlier one.
func (v verdictSet) set(t TxnID, committed bool) {
	k, bit := verdictSlot(t)
	w := v.word(k)
	w.known |= bit
	if committed {
		w.committed |= bit
	} else {
		w.committed &^= bit
	}
}

// clear forgets t's outcome.
func (v verdictSet) clear(t TxnID) {
	k, bit := verdictSlot(t)
	if w := v[k]; w != nil {
		w.known &^= bit
		w.committed &^= bit
		if w.known == 0 {
			delete(v, k)
		}
	}
}

func (v verdictSet) word(k verdictKey) *verdictBits {
	w := v[k]
	if w == nil {
		w = &verdictBits{}
		v[verdictKey{strings.Clone(k.prefix), k.block}] = w
	}
	return w
}

// merge folds in a word from elsewhere (a snapshot, a rebuild peer). It
// reports false, merging nothing, when an outcome both sides know
// disagrees.
func (v verdictSet) merge(in VerdictWord) bool {
	k := verdictKey{in.Prefix, in.Block}
	if w := v[k]; w != nil && (w.committed^in.Committed)&w.known&in.Known != 0 {
		return false
	}
	if in.Known == 0 {
		return true
	}
	w := v.word(k)
	w.known |= in.Known
	w.committed |= in.Committed & in.Known
	return true
}

// count returns how many outcomes the set records.
func (v verdictSet) count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w.known)
	}
	return n
}

// words lists the set in (prefix, block) order, so encodings of equal sets
// are equal bytes.
func (v verdictSet) words() []VerdictWord {
	if len(v) == 0 {
		return nil
	}
	out := make([]VerdictWord, 0, len(v))
	for k, w := range v {
		out = append(out, VerdictWord{Prefix: k.prefix, Block: k.block, Known: w.known, Committed: w.committed})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix < out[j].Prefix
		}
		return out[i].Block < out[j].Block
	})
	return out
}

func putVerdictWord(e *wire.Encoder, w VerdictWord) {
	e.String(w.Prefix)
	e.Varint(w.Block)
	e.Uvarint(w.Known)
	e.Uvarint(w.Committed)
}

func getVerdictWord(d *wire.Decoder) VerdictWord {
	return VerdictWord{Prefix: d.String(), Block: d.Varint(), Known: d.Uvarint(), Committed: d.Uvarint()}
}
