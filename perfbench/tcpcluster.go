package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// replicaIDs names the three replicas every item of the tcp workloads lives
// on, under majority read and write quorums.
var replicaIDs = []string{"dm0", "dm1", "dm2"}

func majorityItems(names []string, initial any) []cluster.ItemSpec {
	items := make([]cluster.ItemSpec, len(names))
	for i, name := range names {
		items[i] = cluster.ItemSpec{Name: name, Initial: initial, DMs: replicaIDs, Config: quorum.Majority(replicaIDs)}
	}
	return items
}

// tcpCluster is one in-process cluster over real loopback sockets: each
// replica is served by cluster.ServeDM on its own tcp.Transport and port,
// and one cluster.OpenClient store on a further transport drives them —
// the layout of `qcstore serve` and `qcstore client`, in one process.
type tcpCluster struct {
	items  []cluster.ItemSpec
	opts   []cluster.Option
	tracer *tracer // nil when untraced
	trs    map[string]*tcp.Transport
	hosts  map[string]*cluster.DMHost
	client *tcp.Transport
	store  *cluster.Store
}

// freeAddrs reserves n loopback ports by listening and closing again, so
// every transport can be given the full peer map up front — and a restarted
// replica listens where its peers expect it.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startTCP starts the replicas and the client store. durable gives every
// replica a write-ahead log on an in-memory filesystem with fsync and
// group commit on (the log's defaults); otherwise replicas are volatile.
func startTCP(items []cluster.ItemSpec, seed int64, durable bool, tr *tracer) (c *tcpCluster, err error) {
	addrs, err := freeAddrs(len(replicaIDs))
	if err != nil {
		return nil, err
	}
	peers := map[string]string{}
	for i, id := range replicaIDs {
		peers[id] = addrs[i]
	}
	c = &tcpCluster{items: items, tracer: tr, trs: map[string]*tcp.Transport{}, hosts: map[string]*cluster.DMHost{}}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if durable {
		var fs wal.FS = newMemFS()
		if tr != nil {
			fs = tracedFS{FS: fs, t: tr}
		}
		c.opts = append(c.opts,
			cluster.WithDurability("wal"),
			cluster.WithWALOptions(wal.WithFS(fs), wal.WithFsync(true), wal.WithGroupCommit(true)),
		)
	}
	for _, id := range replicaIDs {
		c.trs[id] = tcp.New(tcp.WithPeers(peers))
		if err := c.serve(id); err != nil {
			return nil, err
		}
	}
	c.client = tcp.New(tcp.WithPeers(peers))
	c.store, err = cluster.OpenClient(c.wrap(c.client), items, cluster.WithSeed(seed), cluster.WithTxnRetries(txnRetries))
	if err != nil {
		return nil, fmt.Errorf("open client: %w", err)
	}
	return c, nil
}

// txnRetries bounds conflict restarts of one top-level transaction. The
// store's default of 8 lets the bank workload's hot revenue item fail a
// transfer now and then; the benchmark wants every transaction to commit.
const txnRetries = 64

func (c *tcpCluster) wrap(tr transport.Transport) transport.Transport {
	if c.tracer == nil {
		return tr
	}
	return c.tracer.wrap(tr)
}

func (c *tcpCluster) serve(id string) error {
	host, err := cluster.ServeDM(c.wrap(c.trs[id]), id, c.items, c.opts...)
	if err != nil {
		return fmt.Errorf("serve %s: %w", id, err)
	}
	c.hosts[id] = host
	return nil
}

// restart stops one replica in order and serves it again from its log,
// returning the wall time of the restart and what recovery replayed.
func (c *tcpCluster) restart(id string) (time.Duration, cluster.RecoveryStats, error) {
	c.hosts[id].Close()
	start := time.Now()
	if err := c.serve(id); err != nil {
		return 0, cluster.RecoveryStats{}, err
	}
	return time.Since(start), c.hosts[id].Recovery(), nil
}

func (c *tcpCluster) close() {
	if c.store != nil {
		c.store.Close()
	}
	if c.client != nil {
		c.client.Close()
	}
	for _, id := range replicaIDs {
		if h := c.hosts[id]; h != nil {
			h.Close()
		}
		if tr := c.trs[id]; tr != nil {
			tr.Close()
		}
	}
}
