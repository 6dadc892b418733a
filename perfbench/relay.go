package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// relay is a loopback TCP relay between one client connection and the
// server, used by the traced rounds of remote-lookup. It counts the frames
// the client sends (round trips, since the protocol is strict
// request/response) and the bytes both ways, and records a server span for
// every request: from forwarding the request frame to receiving the
// response frame.
type relay struct {
	ln     net.Listener
	target string
	rec    *recorder
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
	// parent and req identify the operation in flight; sent is when its
	// latest request frame was forwarded.
	parent int32
	req    int64
	sent   time.Time

	frames atomic.Int64 // client-to-server frames
	bytes  atomic.Int64 // bytes both ways, frame headers included
}

func startRelay(target string, rec *recorder) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, rec: rec, parent: -1}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			return
		}
		r.mu.Lock()
		r.conns = append(r.conns, client, server)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(client, server, true)
		go r.pump(server, client, false)
	}()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// pump copies frames from src to dst until either side closes.
func (r *relay) pump(src, dst net.Conn, up bool) {
	defer r.wg.Done()
	defer src.Close()
	defer dst.Close()
	for {
		typ, payload, err := wire.ReadFrame(src)
		if err != nil {
			return
		}
		now := time.Now()
		r.bytes.Add(int64(5 + len(payload)))
		r.mu.Lock()
		if up {
			r.frames.Add(1)
			r.sent = now
		} else if r.req != 0 {
			r.rec.spanAt("server.request", "server", r.parent, r.req, r.sent, now)
		}
		r.mu.Unlock()
		if err := wire.WriteFrame(dst, typ, payload); err != nil {
			return
		}
	}
}

// traced runs op as one traced operation through the relay: a root span in
// the wire layer, with the server spans the relay records as its children.
// It returns the span's duration and the frames and bytes op exchanged.
func (r *relay) traced(rec *recorder, name string, op func() error) (time.Duration, int64, int64, error) {
	req := rec.newReq()
	id := rec.begin(name, "wire", -1, req)
	r.mu.Lock()
	r.parent, r.req = id, req
	r.mu.Unlock()
	f0, b0 := r.frames.Load(), r.bytes.Load()
	err := op()
	d := rec.end(id)
	r.mu.Lock()
	r.parent, r.req = -1, 0
	r.mu.Unlock()
	return d, r.frames.Load() - f0, r.bytes.Load() - b0, err
}

// stop closes the relay and waits for its goroutines.
func (r *relay) stop() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
