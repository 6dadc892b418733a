package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Replica tails a primary's replication stream into a local database: it
// bootstraps from the primary's attach-time snapshot (which the primary
// captures atomically with the stream attachment, so there is no gap and no
// overlap), then applies each committed batch as it arrives. Multi-mutation
// batches — transaction commits — are applied through a store overlay
// transaction, so a reader on the replica sees every batch entirely or not
// at all: reads are snapshot-consistent with some committed prefix of the
// primary's history.
//
// The stream carries no positions: falling behind, a store replacement on the
// primary, a primary restart, or a network cut all funnel into the same
// recovery — reconnect and re-bootstrap from the primary's current snapshot.
// That is also exactly what makes a checkpoint-compacted log a non-event for
// replication: the snapshot the replica re-bootstraps from already contains
// everything the compaction folded in.
type Replica struct {
	db    *dbpl.DB
	addr  string
	token string
	logf  func(format string, args ...any)

	// ReconnectDelay is the pause between tail attempts (default 500ms).
	ReconnectDelay time.Duration

	mu     sync.Mutex
	status ReplicaStatus
}

// ReplicaStatus is a snapshot of replication progress for health reporting.
type ReplicaStatus struct {
	// Connected reports a live stream (bootstrap completed, batches flowing).
	Connected bool
	// Applied counts batches applied since the replica started (across
	// reconnects; it does not reset on re-bootstrap).
	Applied uint64
	// Bootstraps counts snapshot loads — 1 after a clean start, more after
	// reconnects.
	Bootstraps uint64
	// LastErr is the most recent stream failure, nil after a clean
	// (re)connect.
	LastErr error
}

// NewReplica prepares a tailer that replicates primary state at addr into db
// (which should be memory-only: the primary owns durability). Run starts it.
func NewReplica(db *dbpl.DB, addr, token string, logf func(format string, args ...any)) *Replica {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Replica{db: db, addr: addr, token: token, logf: logf, ReconnectDelay: 500 * time.Millisecond}
}

// Status returns the current replication progress.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

func (r *Replica) setConnected(ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.status.Connected = ok
	r.status.LastErr = err
	if ok {
		r.status.Bootstraps++
	}
}

func (r *Replica) noteApplied() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.status.Applied++
}

// Run tails the primary until ctx is canceled, reconnecting (and
// re-bootstrapping) after every stream failure.
func (r *Replica) Run(ctx context.Context) error {
	for {
		err := r.tail(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.setConnected(false, err)
		r.logf("dbpld: replica: stream ended: %v (reconnecting in %s)", err, r.ReconnectDelay)
		select {
		case <-time.After(r.ReconnectDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// tail runs one stream: dial, handshake, FOLLOW, bootstrap, apply until the
// stream breaks.
func (r *Replica) tail(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// A canceled ctx must unblock the reads below; closing the socket is the
	// only lever a blocking Read responds to.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	br := bufio.NewReader(conn)
	if _, err := wire.ClientHello(conn, br, r.token); err != nil {
		return fmt.Errorf("handshake with primary: %w", err)
	}
	if err := wire.WriteFrame(conn, wire.TFollow, nil); err != nil {
		return err
	}

	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	switch typ {
	case wire.TFollowSnap:
	case wire.TErr:
		return fmt.Errorf("primary refused follow: %w", wire.AsRemote(payload))
	default:
		return fmt.Errorf("expected snapshot, got frame type %d", typ)
	}
	if err := r.db.LoadStore(bytes.NewReader(payload)); err != nil {
		return fmt.Errorf("loading bootstrap snapshot: %w", err)
	}
	// LoadStore swapped in a fresh store; every subsequent batch lands on it.
	// This goroutine is the replica's only writer, so the snapshot taken here
	// stays current until the next re-bootstrap (also ours).
	st := r.db.StoreSnapshot()
	r.setConnected(true, nil)
	r.logf("dbpld: replica: bootstrapped from %s (%d variables)", r.addr, len(st.Names()))

	for {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		switch typ {
		case wire.TFollowBatch:
			batch, err := wal.DecodeBatch(payload)
			if err != nil {
				return fmt.Errorf("corrupt replication batch: %w", err)
			}
			if err := wal.Apply(st, batch); err != nil {
				return fmt.Errorf("applying replicated batch: %w", err)
			}
			r.noteApplied()
		case wire.TErr:
			rerr := wire.AsRemote(payload)
			var re *wire.RemoteError
			if errors.As(rerr, &re) && re.Code == wire.CodeBehind {
				return fmt.Errorf("cut off by the primary; re-bootstrapping: %w", rerr)
			}
			return fmt.Errorf("stream error from primary: %w", rerr)
		default:
			return fmt.Errorf("unexpected frame type %d on follow stream", typ)
		}
	}
}
