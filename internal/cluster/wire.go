package cluster

import (
	"fmt"
	"slices"

	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/wire"
)

// The wire tag table: every protocol request and response type in msgs.go
// is registered here, once, with the functions that write and read its
// fields. Two consumers share it — the write-ahead log (records are tagged
// requests) and the TCP transport (frames carry tagged requests and
// responses). Tags follow msgs.go's declaration order and are part of the
// format: renumbering a tag, or reordering a type's fields, changes the
// bytes on disk and on the wire and needs a wire.Version bump.
// TestWireTagsCoverMsgs fails when a type declared in msgs.go has no tag.

// ValueError is the typed refusal of a value outside the kinds every
// backend carries (nil, bool, int, int64, uint64, float64, string,
// []byte). Txn.Write and Open return it, wrapped with the item's name, on
// the sim and TCP alike.
type ValueError = wire.ValueError

// checkValue refuses, naming the item, a value no backend can carry.
func checkValue(item string, v any) error {
	if err := wire.CheckValue(v); err != nil {
		return fmt.Errorf("cluster: item %q: %w", item, err)
	}
	return nil
}

func init() {
	wire.Register(1, func(e *wire.Encoder, m ReadReq) {
		e.String(string(m.Txn))
		e.String(m.Item)
		e.Int(int(m.Lock))
		e.Int(m.Seq)
	}, func(d *wire.Decoder) ReadReq {
		return ReadReq{Txn: TxnID(d.String()), Item: d.String(), Lock: LockMode(d.Int()), Seq: d.Int()}
	})
	wire.Register(2, func(e *wire.Encoder, m ReadResp) {
		e.Bool(m.OK)
		e.Bool(m.Busy)
		e.Bool(m.Held)
		e.Int(m.VN)
		e.Value(m.Val)
		e.Int(m.Gen)
		putCfg(e, m.Cfg)
		e.Bool(m.Hinted)
	}, func(d *wire.Decoder) ReadResp {
		return ReadResp{OK: d.Bool(), Busy: d.Bool(), Held: d.Bool(), VN: d.Int(), Val: d.Value(), Gen: d.Int(), Cfg: getCfg(d), Hinted: d.Bool()}
	})
	wire.Register(3, func(e *wire.Encoder, m WriteReq) {
		e.String(string(m.Txn))
		e.String(m.Item)
		e.Int(m.VN)
		e.Value(m.Val)
		e.Int(m.Seq)
	}, func(d *wire.Decoder) WriteReq {
		return WriteReq{Txn: TxnID(d.String()), Item: d.String(), VN: d.Int(), Val: d.Value(), Seq: d.Int()}
	})
	wire.Register(4, func(e *wire.Encoder, m ConfigWriteReq) {
		e.String(string(m.Txn))
		e.String(m.Item)
		e.Int(m.Gen)
		putCfg(e, m.Cfg)
		e.Int(m.Seq)
	}, func(d *wire.Decoder) ConfigWriteReq {
		return ConfigWriteReq{Txn: TxnID(d.String()), Item: d.String(), Gen: d.Int(), Cfg: getCfg(d), Seq: d.Int()}
	})
	wire.Register(5, func(e *wire.Encoder, m WriteResp) {
		e.Bool(m.OK)
		e.Bool(m.Busy)
		e.Bool(m.Held)
	}, func(d *wire.Decoder) WriteResp {
		return WriteResp{OK: d.Bool(), Busy: d.Bool(), Held: d.Bool()}
	})
	wire.Register(6, func(e *wire.Encoder, m ReleaseReq) {
		e.String(string(m.Txn))
		e.String(m.Item)
		e.Int(m.Seq)
	}, func(d *wire.Decoder) ReleaseReq {
		return ReleaseReq{Txn: TxnID(d.String()), Item: d.String(), Seq: d.Int()}
	})
	wire.Register(7, func(e *wire.Encoder, m CommitSubReq) {
		e.String(string(m.Txn))
	}, func(d *wire.Decoder) CommitSubReq {
		return CommitSubReq{Txn: TxnID(d.String())}
	})
	wire.Register(8, func(e *wire.Encoder, m AbortReq) {
		e.String(string(m.Txn))
	}, func(d *wire.Decoder) AbortReq {
		return AbortReq{Txn: TxnID(d.String())}
	})
	wire.Register(9, func(e *wire.Encoder, m CommitTopReq) {
		e.String(string(m.Txn))
		wire.Strings(e, m.Subs)
		putFinal(e, m.Final)
	}, func(d *wire.Decoder) CommitTopReq {
		return CommitTopReq{Txn: TxnID(d.String()), Subs: wire.ReadStrings[TxnID](d), Final: getFinal(d)}
	})
	wire.Register(10, func(e *wire.Encoder, m Ack) {
		e.Bool(m.OK)
	}, func(d *wire.Decoder) Ack {
		return Ack{OK: d.Bool()}
	})
	wire.Register(11, func(e *wire.Encoder, m RepairReq) {
		e.String(m.Item)
		e.Int(m.VN)
		e.Value(m.Val)
		e.Int(m.Gen)
		putCfg(e, m.Cfg)
	}, func(d *wire.Decoder) RepairReq {
		return RepairReq{Item: d.String(), VN: d.Int(), Val: d.Value(), Gen: d.Int(), Cfg: getCfg(d)}
	})
	wire.Register(12, func(e *wire.Encoder, m OverloadedResp) {
		e.String(m.DM)
		e.Bool(m.Expired)
	}, func(d *wire.Decoder) OverloadedResp {
		return OverloadedResp{DM: d.String(), Expired: d.Bool()}
	})
	wire.Register(13, func(e *wire.Encoder, m PingReq) {
		e.Int(m.Seq)
	}, func(d *wire.Decoder) PingReq {
		return PingReq{Seq: d.Int()}
	})
	wire.Register(14, func(e *wire.Encoder, m InspectReq) {
		e.String(m.Item)
	}, func(d *wire.Decoder) InspectReq {
		return InspectReq{Item: d.String()}
	})
	wire.Register(15, func(e *wire.Encoder, m InspectResp) {
		e.Bool(m.OK)
		e.Int(m.VN)
		e.Value(m.Val)
		e.Int(m.Gen)
		putCfg(e, m.Cfg)
		e.Int(m.Locks)
		e.Int(m.Intents)
	}, func(d *wire.Decoder) InspectResp {
		return InspectResp{OK: d.Bool(), VN: d.Int(), Val: d.Value(), Gen: d.Int(), Cfg: getCfg(d), Locks: d.Int(), Intents: d.Int()}
	})
	wire.Register(16, func(e *wire.Encoder, m RenewLeaseReq) {
		e.String(string(m.Txn))
	}, func(d *wire.Decoder) RenewLeaseReq {
		return RenewLeaseReq{Txn: TxnID(d.String())}
	})
	wire.Register(17, func(e *wire.Encoder, m ResolutionQueryReq) {
		e.String(string(m.Txn))
		e.String(m.From)
	}, func(d *wire.Decoder) ResolutionQueryReq {
		return ResolutionQueryReq{Txn: TxnID(d.String()), From: d.String()}
	})
	wire.Register(18, func(e *wire.Encoder, m ResolutionAnswer) {
		e.String(string(m.Txn))
		e.String(m.From)
		e.Bool(m.Known)
		e.Bool(m.Committed)
		wire.Strings(e, m.Subs)
		e.Bool(m.Active)
		e.Bool(m.Accepted)
		wire.Strings(e, m.Cohort)
	}, func(d *wire.Decoder) ResolutionAnswer {
		return ResolutionAnswer{
			Txn: TxnID(d.String()), From: d.String(), Known: d.Bool(), Committed: d.Bool(),
			Subs: wire.ReadStrings[TxnID](d), Active: d.Bool(), Accepted: d.Bool(), Cohort: wire.ReadStrings[string](d),
		}
	})
	wire.Register(19, func(e *wire.Encoder, m HintReadReq) {
		e.String(string(m.Txn))
		e.String(m.Item)
		e.Int(m.Seq)
		e.Int(m.Gen)
	}, func(d *wire.Decoder) HintReadReq {
		return HintReadReq{Txn: TxnID(d.String()), Item: d.String(), Seq: d.Int(), Gen: d.Int()}
	})
	wire.Register(20, func(e *wire.Encoder, m HintMissResp) {
		e.String(m.DM)
		e.String(m.Reason)
	}, func(d *wire.Decoder) HintMissResp {
		return HintMissResp{DM: d.String(), Reason: d.String()}
	})
	wire.Register(21, func(e *wire.Encoder, m HintGrantReq) {
		e.String(m.Item)
		e.Int(m.VN)
		e.Int(m.Gen)
	}, func(d *wire.Decoder) HintGrantReq {
		return HintGrantReq{Item: d.String(), VN: d.Int(), Gen: d.Int()}
	})
	wire.Register(22, func(e *wire.Encoder, m HintFenceReq) {
		e.String(string(m.Txn))
		e.String(m.Item)
	}, func(d *wire.Decoder) HintFenceReq {
		return HintFenceReq{Txn: TxnID(d.String()), Item: d.String()}
	})
	wire.Register(23, func(e *wire.Encoder, m ReapReq) {
		e.String(string(m.Txn))
		e.Bool(m.Commit)
		wire.Strings(e, m.Subs)
	}, func(d *wire.Decoder) ReapReq {
		return ReapReq{Txn: TxnID(d.String()), Commit: d.Bool(), Subs: wire.ReadStrings[TxnID](d)}
	})
	wire.Register(24, func(e *wire.Encoder, m AdoptItemReq) {
		e.String(m.Item)
		e.Value(m.Initial)
	}, func(d *wire.Decoder) AdoptItemReq {
		return AdoptItemReq{Item: d.String(), Initial: d.Value()}
	})
	wire.Register(25, func(e *wire.Encoder, m RetireItemReq) {
		e.String(m.Item)
		e.Int(m.Epoch)
		e.String(m.Group)
		wire.Strings(e, m.DMs)
		e.Int(m.Gen)
		putCfg(e, m.Cfg)
	}, func(d *wire.Decoder) RetireItemReq {
		return RetireItemReq{Item: d.String(), Epoch: d.Int(), Group: d.String(), DMs: wire.ReadStrings[string](d), Gen: d.Int(), Cfg: getCfg(d)}
	})
	wire.Register(26, putWrongShard, getWrongShard)
	wire.Register(27, func(*wire.Encoder, RingReq) {}, func(*wire.Decoder) RingReq { return RingReq{} })
	wire.Register(28, func(e *wire.Encoder, m RingResp) {
		e.Bool(m.OK)
		putRing(e, m.Ring)
	}, func(d *wire.Decoder) RingResp {
		return RingResp{OK: d.Bool(), Ring: getRing(d)}
	})
	wire.Register(29, func(e *wire.Encoder, m RingUpdateReq) {
		putRing(e, m.Ring)
	}, func(d *wire.Decoder) RingUpdateReq {
		return RingUpdateReq{Ring: getRing(d)}
	})
	wire.Register(30, func(e *wire.Encoder, m PaxosAcceptReq) {
		e.String(string(m.Txn))
		e.Int(m.Ballot)
		e.Bool(m.Commit)
		wire.Strings(e, m.Subs)
		putFinal(e, m.Final)
		wire.Strings(e, m.Cohort)
	}, func(d *wire.Decoder) PaxosAcceptReq {
		return PaxosAcceptReq{
			Txn: TxnID(d.String()), Ballot: d.Int(), Commit: d.Bool(),
			Subs: wire.ReadStrings[TxnID](d), Final: getFinal(d), Cohort: wire.ReadStrings[string](d),
		}
	})
	wire.Register(31, func(e *wire.Encoder, m PaxosAcceptResp) {
		e.Bool(m.OK)
		e.Int(m.Promised)
		e.Bool(m.Decided)
		e.Bool(m.DecCommit)
	}, func(d *wire.Decoder) PaxosAcceptResp {
		return PaxosAcceptResp{OK: d.Bool(), Promised: d.Int(), Decided: d.Bool(), DecCommit: d.Bool()}
	})
	wire.Register(32, func(e *wire.Encoder, m PaxosPrepareReq) {
		e.String(string(m.Txn))
		e.Int(m.Ballot)
		wire.Strings(e, m.Cohort)
	}, func(d *wire.Decoder) PaxosPrepareReq {
		return PaxosPrepareReq{Txn: TxnID(d.String()), Ballot: d.Int(), Cohort: wire.ReadStrings[string](d)}
	})
	wire.Register(33, func(e *wire.Encoder, m PaxosDecisionReq) {
		e.String(string(m.Txn))
		e.Bool(m.Commit)
		wire.Strings(e, m.Subs)
		putFinal(e, m.Final)
	}, func(d *wire.Decoder) PaxosDecisionReq {
		return PaxosDecisionReq{Txn: TxnID(d.String()), Commit: d.Bool(), Subs: wire.ReadStrings[TxnID](d), Final: getFinal(d)}
	})
	wire.Register(34, func(e *wire.Encoder, m PaxosRecoverQuery) {
		e.String(string(m.Txn))
		e.Int(m.Ballot)
		wire.Strings(e, m.Cohort)
		e.String(m.From)
	}, func(d *wire.Decoder) PaxosRecoverQuery {
		return PaxosRecoverQuery{Txn: TxnID(d.String()), Ballot: d.Int(), Cohort: wire.ReadStrings[string](d), From: d.String()}
	})
	wire.Register(35, func(e *wire.Encoder, m PaxosRecoverPromise) {
		e.String(string(m.Txn))
		e.Int(m.Ballot)
		e.String(m.From)
		e.Bool(m.OK)
		e.Int(m.Promised)
		e.Int(m.AccBal)
		e.Bool(m.AccCommit)
		wire.Strings(e, m.AccSubs)
		putFinal(e, m.AccFinal)
		e.Bool(m.Decided)
		e.Bool(m.DecCommit)
		wire.Strings(e, m.DecSubs)
		putFinal(e, m.DecFinal)
	}, func(d *wire.Decoder) PaxosRecoverPromise {
		return PaxosRecoverPromise{
			Txn: TxnID(d.String()), Ballot: d.Int(), From: d.String(), OK: d.Bool(), Promised: d.Int(),
			AccBal: d.Int(), AccCommit: d.Bool(), AccSubs: wire.ReadStrings[TxnID](d), AccFinal: getFinal(d),
			Decided: d.Bool(), DecCommit: d.Bool(), DecSubs: wire.ReadStrings[TxnID](d), DecFinal: getFinal(d),
		}
	})
	wire.Register(36, func(e *wire.Encoder, m PaxosRecoverAccept) {
		e.String(string(m.Txn))
		e.Int(m.Ballot)
		e.Bool(m.Commit)
		wire.Strings(e, m.Subs)
		putFinal(e, m.Final)
		wire.Strings(e, m.Cohort)
		e.String(m.From)
	}, func(d *wire.Decoder) PaxosRecoverAccept {
		return PaxosRecoverAccept{
			Txn: TxnID(d.String()), Ballot: d.Int(), Commit: d.Bool(), Subs: wire.ReadStrings[TxnID](d),
			Final: getFinal(d), Cohort: wire.ReadStrings[string](d), From: d.String(),
		}
	})
	wire.Register(37, func(e *wire.Encoder, m PaxosRecoverAccepted) {
		e.String(string(m.Txn))
		e.Int(m.Ballot)
		e.String(m.From)
		e.Bool(m.OK)
	}, func(d *wire.Decoder) PaxosRecoverAccepted {
		return PaxosRecoverAccepted{Txn: TxnID(d.String()), Ballot: d.Int(), From: d.String(), OK: d.Bool()}
	})
	wire.Register(38, func(e *wire.Encoder, m ResolutionProbeReq) {
		e.String(string(m.Txn))
	}, func(d *wire.Decoder) ResolutionProbeReq {
		return ResolutionProbeReq{Txn: TxnID(d.String())}
	})
	wire.Register(39, func(e *wire.Encoder, m ResolutionProbeResp) {
		e.Bool(m.Known)
		e.Bool(m.Committed)
		e.Bool(m.Holds)
		e.Int(m.Promised)
		e.Int(m.AccBal)
		e.Bool(m.AccCommit)
	}, func(d *wire.Decoder) ResolutionProbeResp {
		return ResolutionProbeResp{Known: d.Bool(), Committed: d.Bool(), Holds: d.Bool(), Promised: d.Int(), AccBal: d.Int(), AccCommit: d.Bool()}
	})
	wire.Register(40, func(e *wire.Encoder, m QuarantinedResp) {
		e.String(m.DM)
		e.String(m.Reason)
	}, func(d *wire.Decoder) QuarantinedResp {
		return QuarantinedResp{DM: d.String(), Reason: d.String()}
	})
	wire.Register(41, func(e *wire.Encoder, m RebuildPullReq) {
		e.String(m.For)
		wire.Strings(e, m.Items)
	}, func(d *wire.Decoder) RebuildPullReq {
		return RebuildPullReq{For: d.String(), Items: wire.ReadStrings[string](d)}
	})
	wire.Register(42, func(e *wire.Encoder, m RebuildPullResp) {
		e.Bool(m.OK)
		e.String(m.From)
		wire.Slice(e, m.Items, func(e *wire.Encoder, it RebuildItemState) {
			e.String(it.Item)
			e.Bool(it.Has)
			e.Int(it.VN)
			e.Value(it.Val)
			e.Int(it.Gen)
			putCfg(e, it.Cfg)
		})
		wire.Map(e, m.Moved, putWrongShard)
		wire.Map(e, m.Resolved, func(e *wire.Encoder, r RebuildResolution) {
			e.Bool(r.Committed)
			wire.Strings(e, r.Subs)
		})
		wire.Slice(e, m.Verdicts, putVerdictWord)
		wire.Map(e, m.Acceptors, putAcceptor)
	}, func(d *wire.Decoder) RebuildPullResp {
		return RebuildPullResp{
			OK: d.Bool(), From: d.String(),
			Items: wire.ReadSlice(d, func(d *wire.Decoder) RebuildItemState {
				return RebuildItemState{Item: d.String(), Has: d.Bool(), VN: d.Int(), Val: d.Value(), Gen: d.Int(), Cfg: getCfg(d)}
			}),
			Moved: wire.ReadMap[string](d, getWrongShard),
			Resolved: wire.ReadMap[TxnID](d, func(d *wire.Decoder) RebuildResolution {
				return RebuildResolution{Committed: d.Bool(), Subs: wire.ReadStrings[TxnID](d)}
			}),
			Verdicts:  wire.ReadSlice(d, getVerdictWord),
			Acceptors: wire.ReadMap[TxnID](d, getAcceptor),
		}
	})
}

// putCfg writes a quorum configuration: its read quorums, then its write
// quorums, each quorum as its sorted member names.
func putCfg(e *wire.Encoder, c quorum.Config) {
	wire.Slice(e, c.R, putSet)
	wire.Slice(e, c.W, putSet)
}

func getCfg(d *wire.Decoder) quorum.Config {
	return quorum.Config{R: wire.ReadSlice(d, getSet), W: wire.ReadSlice(d, getSet)}
}

// smallQuorum is the quorum size the set codec reserves room for up front:
// putSet sorts that many names in a stack buffer without allocating, and
// getSet sizes the decoded map for at most that many before it has seen
// them.
const smallQuorum = 8

func putSet(e *wire.Encoder, s quorum.Set) {
	var buf [smallQuorum]string
	names := buf[:0]
	for n, in := range s {
		if in {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	wire.Strings(e, names)
}

func getSet(d *wire.Decoder) quorum.Set {
	n := d.Len()
	s := make(quorum.Set, min(n, smallQuorum))
	for i := 0; i < n && d.Err() == nil; i++ {
		s[d.String()] = true
	}
	return s
}

// putFinal writes a CommitTopReq-style item → version map.
func putFinal(e *wire.Encoder, m map[string]int) { wire.Map(e, m, (*wire.Encoder).Int) }

func getFinal(d *wire.Decoder) map[string]int { return wire.ReadMap[string](d, (*wire.Decoder).Int) }

func putWrongShard(e *wire.Encoder, m WrongShardResp) {
	e.String(m.DM)
	e.String(m.Item)
	e.Int(m.Epoch)
	e.String(m.Group)
	wire.Strings(e, m.DMs)
	e.Int(m.Gen)
	putCfg(e, m.Cfg)
}

func getWrongShard(d *wire.Decoder) WrongShardResp {
	return WrongShardResp{DM: d.String(), Item: d.String(), Epoch: d.Int(), Group: d.String(), DMs: wire.ReadStrings[string](d), Gen: d.Int(), Cfg: getCfg(d)}
}

// putRing writes a ring's exported identity. The derived vnode points are
// not sent: the decoded ring rebuilds them on first lookup and places
// exactly as the encoded one.
func putRing(e *wire.Encoder, r shard.Ring) {
	e.Varint(r.Seed)
	e.Int(r.VNodes)
	e.Int(r.Epoch)
	wire.Slice(e, r.Groups, func(e *wire.Encoder, g shard.Group) {
		e.String(g.Name)
		wire.Strings(e, g.DMs)
	})
	wire.Map(e, r.Overrides, (*wire.Encoder).String)
}

func getRing(d *wire.Decoder) shard.Ring {
	return shard.Ring{
		Seed: d.Varint(), VNodes: d.Int(), Epoch: d.Int(),
		Groups: wire.ReadSlice(d, func(d *wire.Decoder) shard.Group {
			return shard.Group{Name: d.String(), DMs: wire.ReadStrings[string](d)}
		}),
		Overrides: wire.ReadMap[string](d, (*wire.Decoder).String),
	}
}

func putAcceptor(e *wire.Encoder, a commit.Acceptor) {
	e.Int(a.Promised)
	e.Int(a.AccBal)
	e.Bool(a.AccVal.Commit)
	wire.Strings(e, a.AccVal.Subs)
	putFinal(e, a.AccVal.Final)
	wire.Strings(e, a.Cohort)
}

func getAcceptor(d *wire.Decoder) commit.Acceptor {
	return commit.Acceptor{
		Promised: d.Int(), AccBal: d.Int(),
		AccVal: commit.Decision{Commit: d.Bool(), Subs: wire.ReadStrings[string](d), Final: getFinal(d)},
		Cohort: wire.ReadStrings[string](d),
	}
}
