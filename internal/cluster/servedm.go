package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/transport"
)

// DMHost is one DM replica hosted by this process — the server-side entry
// point a multi-process deployment runs N times, once per replica, while
// clients attach with OpenClient over the same transport. The host serves
// every item whose DMs list names it; the full item specs are still passed
// in so the replica knows its peer set for lease-resolution inquiries.
type DMHost struct {
	h        *dmHandle
	recovery RecoveryStats

	// Quarantined, when non-nil, reports that the replica's log was corrupt
	// at start AND the automatic peer rebuild failed: the host is serving,
	// but answers only QuarantinedResp until the process restarts against
	// reachable peers. Rebuilt reports a start-time rebuild that succeeded,
	// with its stats.
	Quarantined error
	Rebuilt     *RebuildStats

	// Stats receives the host-side counters lease coordination updates
	// (orphan reaps, resolution queries). Client-side counters stay zero.
	Stats Stats
}

// ServeDM starts the DM named id on tr, serving its slice of items. With
// WithDurability the replica keeps a write-ahead log under dir/<id> and
// recovers from it when one exists — so a kill -9'd process restarted with
// the same flags resumes exactly where the log ends. Options that shape
// the server side (WithDurability, WithWALOptions, WithSnapshotEvery,
// WithLeaseTTL, WithClock, WithAdmissionCapacity, WithServiceTime,
// WithReadLease, WithReadLeaseTTL, WithResolvedRetention) apply;
// client-side options are ignored.
func ServeDM(tr transport.Transport, id string, items []ItemSpec, opts ...Option) (*DMHost, error) {
	st := resolve(opts)
	var mine []ItemSpec
	var peerSet []string
	seen := map[string]bool{}
	hosts := false
	for _, it := range items {
		if err := checkValue(it.Name, it.Initial); err != nil {
			return nil, err
		}
		for _, dm := range it.DMs {
			if dm == id {
				hosts = true
				mine = append(mine, it)
			} else if !seen[dm] {
				seen[dm] = true
				peerSet = append(peerSet, dm)
			}
		}
	}
	if !hosts {
		return nil, fmt.Errorf("cluster: no item names DM %q", id)
	}
	sort.Strings(peerSet)
	host := &DMHost{}
	wire := func(srv *dmServer) {
		srv.configureLeases(st.leaseTTL, st.clock, peerSet, &host.Stats)
		srv.configureRetention(st.resolvedRetention)
		if st.readLease {
			srv.configureHints(st.readLeaseTTL)
		}
		if st.ring != nil {
			srv.configureRing(st.ring)
		}
	}
	serveOpts := serveOptsFor(st, id, &host.Stats)
	if st.walDir == "" {
		srv := newDMState(id, mine)
		wire(srv)
		server, err := tr.Serve(id, asyncify(srv.handle), serveOpts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: serve DM %s: %w", id, err)
		}
		srv.setSender(server.Notify)
		host.h = &dmHandle{id: id, items: mine, srv: srv, server: server}
		return host, nil
	}
	h, stats, err := newDurableDM(tr, id, mine, filepath.Join(st.walDir, id), st.walOpts, st.snapEvery, wire, serveOpts...)
	if err != nil {
		return nil, err
	}
	if h.quarantined != nil {
		// The log is corrupt beyond a torn tail. Before settling for serving
		// refusals, try one peer rebuild right now: a process restarted onto
		// a scrambled (or wiped) disk should rejoin with its peers' state,
		// not come up answering garbage — or nothing. The quarantined
		// endpoint keeps serving while the pull runs; on success it is
		// replaced by the rebuilt replica under the same id.
		host.Stats.Quarantines.Inc()
		host.Quarantined = h.quarantined
		if len(peerSet) > 0 {
			if nh, rst, rerr := serveDMRebuild(tr, id, h, peerSet, st, wire, serveOpts); rerr == nil {
				h = nh
				host.Quarantined = nil
				host.Rebuilt = &rst
				host.Stats.Rebuilds.Inc()
				host.Stats.RebuiltItems.Add(int64(rst.Items))
			}
		}
	}
	host.h = h
	host.recovery = stats
	if stats.Replayed > 0 || stats.FromSnapshot {
		host.Stats.Recoveries.Inc()
		host.Stats.ReplayedRecords.Add(int64(stats.Replayed))
	}
	return host, nil
}

// serveDMRebuild attempts one peer rebuild of a host replica that came up
// quarantined. It tears the quarantined endpoint down first (the rebuilt
// server needs the id), and re-serves the quarantined handler if the
// rebuild fails — the process stays up either way.
func serveDMRebuild(tr transport.Transport, id string, h *dmHandle, peers []string, st settings, wire func(*dmServer), serveOpts []transport.ServeOption) (*dmHandle, RebuildStats, error) {
	client, err := tr.Client("rebuild-" + id)
	if err != nil {
		return nil, RebuildStats{}, err
	}
	defer client.Close()
	h.server.Close()
	env := rebuildEnv{
		tr: tr, client: client, id: id, items: h.items, dir: h.walPath,
		walOpts: st.walOpts, snapEvery: st.snapEvery,
		peers: peers, timeout: st.callTimeout,
		wire: wire, serveOpts: serveOpts,
	}
	nh, rst, err := rebuildReplica(context.Background(), env)
	if err != nil {
		if qh, qerr := quarantinedDM(tr, id, h.items, h.walPath, h.quarantined, serveOpts...); qerr == nil {
			h.server = qh.server
		}
		return nil, RebuildStats{}, err
	}
	return nh, rst, nil
}

// Recovery reports what the host rebuilt from its write-ahead log at start:
// the zero value for volatile hosts and fresh logs.
func (d *DMHost) Recovery() RecoveryStats { return d.recovery }

// ID returns the hosted DM's name.
func (d *DMHost) ID() string { return d.h.id }

// Close shuts the replica down in order: the endpoint stops accepting (and
// serves what it already delivered), then the write-ahead log flushes its
// tail and closes. An orderly Close loses nothing; SIGKILL is the amnesia
// crash the log exists for.
func (d *DMHost) Close() {
	d.h.server.Close()
	if d.h.wal != nil {
		d.h.wal.log.Close()
	}
}
