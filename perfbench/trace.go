package main

import (
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// Frame kinds as tcp numbers them on the wire: a call, a notify, a reply.
const (
	frameCall   = 1
	frameNotify = 2
	frameReply  = 3
)

// tracer records the per-layer counts and timings of a traced run. It is
// wired in from outside the program through the public seams: it wraps the
// transport (Client for tcp calls, Handler for dm service, Server for
// replica-originated notifies) and the replicas' wal.FS. Nothing is
// recorded until on is set, so one cluster can run an untraced window and
// then a traced one.
type tracer struct {
	on  atomic.Bool
	seq atomic.Uint64

	calls, notifies, callErrors, requests atomic.Int64
	callUS, serviceUS                     samples

	codecMu      sync.Mutex
	codecMsgs    int64
	codecBytes   int64
	codecEncode  time.Duration
	codecDecode  time.Duration
	codecErr     error
	codecSamples map[string]tcp.Frame // first frame of each message type
	codecCounts  map[string]int64

	walBytes, walWrites, walFsyncs, walSnapshots atomic.Int64
	fsyncUS                                      samples
}

func newTracer() *tracer {
	return &tracer{codecSamples: map[string]tcp.Frame{}, codecCounts: map[string]int64{}}
}

// typeName names a message by its Go type, as the per-type codec rows do.
func typeName(msg any) string {
	if msg == nil {
		return "nil"
	}
	return reflect.TypeOf(msg).Name()
}

// codec puts one frame the wrappers saw through tcp.EncodeFrame and
// tcp.DecodeFrame, as the wire would, and records size and time.
func (t *tracer) codec(f tcp.Frame, msg any) {
	start := time.Now()
	b, err := tcp.EncodeFrame(f)
	enc := time.Since(start)
	var dec time.Duration
	if err == nil {
		start = time.Now()
		_, err = tcp.DecodeFrame(b)
		dec = time.Since(start)
	}
	name := typeName(msg)
	t.codecMu.Lock()
	defer t.codecMu.Unlock()
	if err != nil {
		if t.codecErr == nil {
			t.codecErr = err
		}
		return
	}
	t.codecMsgs++
	t.codecBytes += int64(len(b))
	t.codecEncode += enc
	t.codecDecode += dec
	t.codecCounts[name]++
	if _, ok := t.codecSamples[name]; !ok {
		t.codecSamples[name] = f
	}
}

// wrap returns tr with every endpoint it hands out instrumented.
func (t *tracer) wrap(tr transport.Transport) transport.Transport {
	return tracedTransport{Transport: tr, t: t}
}

type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tt tracedTransport) Serve(id string, h transport.Handler, opts ...transport.ServeOption) (transport.Server, error) {
	srv, err := tt.Transport.Serve(id, tt.t.handler(h), opts...)
	if err != nil {
		return nil, err
	}
	return tracedServer{Server: srv, t: tt.t}, nil
}

func (tt tracedTransport) Client(id string) (transport.Client, error) {
	c, err := tt.Transport.Client(id)
	if err != nil {
		return nil, err
	}
	return tracedClient{Client: c, t: tt.t}, nil
}

// handler times a replica's service of one request, from the handler's
// invocation to its reply — for a durable replica that includes waiting
// for the log flush that makes the reply safe.
func (t *tracer) handler(h transport.Handler) transport.Handler {
	return func(from string, req any, reply func(any)) {
		if !t.on.Load() {
			h(from, req, reply)
			return
		}
		t.requests.Add(1)
		start := time.Now()
		h(from, req, func(resp any) {
			t.serviceUS.add(time.Since(start))
			reply(resp)
		})
	}
}

type tracedServer struct {
	transport.Server
	t *tracer
}

func (s tracedServer) Notify(to string, req any) {
	if s.t.on.Load() {
		s.t.notifies.Add(1)
		s.t.codec(tcp.Frame{Kind: frameNotify, From: s.ID(), Req: req}, req)
	}
	s.Server.Notify(to, req)
}

type tracedClient struct {
	transport.Client
	t *tracer
}

func (c tracedClient) Call(ctx context.Context, to string, req any) (any, error) {
	if !c.t.on.Load() {
		return c.Client.Call(ctx, to, req)
	}
	id := c.t.seq.Add(1)
	deadline, _ := ctx.Deadline()
	c.t.codec(tcp.Frame{Kind: frameCall, ID: id, From: c.ID(), Req: req, Deadline: deadline}, req)
	start := time.Now()
	resp, err := c.Client.Call(ctx, to, req)
	c.t.callUS.add(time.Since(start))
	c.t.calls.Add(1)
	if err != nil {
		c.t.callErrors.Add(1)
		return resp, err
	}
	c.t.codec(tcp.Frame{Kind: frameReply, ID: id, Resp: resp}, resp)
	return resp, nil
}

func (c tracedClient) Notify(to string, req any) {
	if c.t.on.Load() {
		c.t.notifies.Add(1)
		c.t.codec(tcp.Frame{Kind: frameNotify, From: c.ID(), Req: req}, req)
	}
	c.Client.Notify(to, req)
}

// tracedFS counts what the write-ahead log asks of its filesystem.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (f tracedFS) OpenAppend(path string) (wal.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

func (f tracedFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	if f.t.on.Load() {
		f.t.walWrites.Add(1)
		f.t.walBytes.Add(int64(len(data)))
	}
	return f.FS.WriteFile(path, data, perm)
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	if f.t.on.Load() && strings.HasSuffix(newpath, ".snap") {
		f.t.walSnapshots.Add(1)
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f tracedFS) SyncFile(path string) error {
	if !f.t.on.Load() {
		return f.FS.SyncFile(path)
	}
	start := time.Now()
	err := f.FS.SyncFile(path)
	f.t.walFsyncs.Add(1)
	f.t.fsyncUS.add(time.Since(start))
	return err
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	if f.t.on.Load() {
		f.t.walWrites.Add(1)
		f.t.walBytes.Add(int64(len(p)))
	}
	return f.File.Write(p)
}

func (f tracedFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.t.walFsyncs.Add(1)
	f.t.fsyncUS.add(time.Since(start))
	return err
}
