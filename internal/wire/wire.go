// Package wire defines the dbpld client/server protocol: length-prefixed
// frames over a byte stream, each carrying one typed message whose payload is
// encoded with the store's binary codecs (length-prefixed strings, varints,
// store.WriteValue scalars). The same frames carry the replication stream: a
// FOLLOW exchange ships a store.Save snapshot and then write-ahead-log batch
// records encoded by wal.EncodeBatch.
//
// # Framing
//
//	uint32 LE frame length | 1 byte message type | payload
//
// The length covers the type byte plus the payload, so a zero-payload message
// frames as length 1. Frames larger than MaxFrame are a protocol error — the
// reader fails instead of allocating attacker-controlled sizes.
//
// # Conversation shape
//
// A connection opens with THello (magic, protocol version, auth token) and
// TServerHello. After that the client speaks strict request/response: one
// request frame, one response frame (TErr for failures) — except TFollow,
// which flips the connection into a one-way stream of TFollowSnap followed by
// TFollowBatch frames until either side closes. Query responses return a
// TRowsHeader naming a server-held cursor; the client pulls tuples with
// TFetch (client-driven backpressure — the server materializes nothing it has
// not been asked for) and frees the cursor with TRowsClose or by draining it.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/store"
	"repro/internal/value"
)

// ProtoMagic opens every THello payload; a mismatch means the peer is not a
// dbpld endpoint at all.
const ProtoMagic = "DBPLW"

// ProtoVersion is the protocol revision; the server rejects clients with a
// different version.
const ProtoVersion = 1

// MaxFrame bounds one frame (type byte plus payload). Bootstrap snapshots
// ride in a single frame, so this is generous; it exists to turn a corrupt
// length prefix into an error instead of an allocation.
const MaxFrame = 1 << 30

// Message types.
const (
	// TErr is the generic failure response: code string, message string.
	TErr byte = 1

	THello       byte = 2  // client: magic, version uvarint, token string
	TServerHello byte = 3  // server: role string ("primary" or "replica")
	TExec        byte = 4  // src string, timeout-millis uvarint
	TExecResult  byte = 5  // SHOW output string
	TQuery       byte = 6  // src string, timeout-millis, args
	TPrepare     byte = 7  // src string
	TPrepared    byte = 8  // stmt id uvarint, param names
	TStmtQuery   byte = 9  // stmt id uvarint, timeout-millis, args
	TStmtClose   byte = 10 // stmt id uvarint
	TFetch       byte = 11 // cursor id uvarint, max uvarint
	TRowsHeader  byte = 12 // cursor id uvarint, column names, total len uvarint
	TRowsBatch   byte = 13 // n uvarint, n*arity values, done bool
	TRowsClose   byte = 14 // cursor id uvarint
	TBegin       byte = 15 // (empty)
	TTxBegun     byte = 16 // tx id uvarint
	TTxExec      byte = 17 // tx id uvarint, src string, timeout-millis
	TTxQuery     byte = 18 // tx id uvarint, src string, timeout-millis, args
	TTxCommit    byte = 19 // tx id uvarint
	TTxRollback  byte = 20 // tx id uvarint
	TExplain     byte = 21 // src string, analyze bool, timeout-millis
	TExplainText byte = 22 // rendered plan text
	THealth      byte = 23 // (empty)
	THealthInfo  byte = 24 // see EncodeHealth
	TVars        byte = 25 // (empty)
	TVarsInfo    byte = 26 // n uvarint, n * (name string, tuple count uvarint)
	TFollow      byte = 27 // (empty) — switches the connection to streaming
	TFollowSnap  byte = 28 // store.Save bytes of the follow stream's base state
	TFollowBatch byte = 29 // one wal.EncodeBatch record
	TOK          byte = 30 // empty success response
)

// Error codes carried by TErr. The client maps them back onto the session
// API's sentinel errors, so errors.Is works identically against an embedded
// and a remote database.
const (
	CodeParse      = "parse"      // *dbpl.ParseError
	CodeReadOnly   = "readonly"   // errors.Is(err, dbpl.ErrReadOnly)
	CodeLimit      = "limit"      // errors.Is(err, dbpl.ErrLimit)
	CodeClosed     = "closed"     // errors.Is(err, dbpl.ErrClosed)
	CodeTxDone     = "txdone"     // dbpl.ErrTxDone
	CodeStmtClosed = "stmtclosed" // dbpl.ErrStmtClosed
	CodeShutdown   = "shutdown"   // server draining; retry against another endpoint
	CodeAuth       = "auth"       // handshake rejected
	CodeProto      = "proto"      // malformed or out-of-protocol frame
	CodeBehind     = "behind"     // follow stream cut: follower fell behind or the store was replaced
	CodeCanceled   = "canceled"   // server-side deadline/cancellation
	CodeInternal   = "internal"   // anything else
)

// WriteFrame writes one frame. The caller owns buffering and flushing.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: %d-byte frame exceeds the %d-byte limit", len(payload)+1, MaxFrame)
	}
	var head [5]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)+1))
	head[4] = typ
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is how much of a frame ReadFrame allocates ahead of the bytes
// that actually arrive: the length prefix is the peer's word, so a frame that
// claims MaxFrame and sends nothing costs one chunk, not a gigabyte.
const frameChunk = 1 << 20

// ReadFrame reads one frame, returning its type and payload.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	if length == 0 || length > MaxFrame {
		return 0, nil, fmt.Errorf("wire: corrupt frame length %d", length)
	}
	if _, err := io.ReadFull(r, head[4:5]); err != nil {
		return 0, nil, err
	}
	n := int(length - 1)
	payload := make([]byte, 0, min(n, frameChunk))
	for len(payload) < n {
		k := min(n-len(payload), frameChunk)
		payload = slices.Grow(payload, k)[:len(payload)+k]
		if _, err := io.ReadFull(r, payload[len(payload)-k:]); err != nil {
			return 0, nil, err
		}
	}
	return head[4], payload, nil
}

// Enc builds one message payload. Write errors cannot occur against the
// in-memory buffer, but the store codecs report them anyway; Enc keeps the
// first and Payload returns it, so call sites stay linear.
type Enc struct {
	buf bytes.Buffer
	err error
}

// NewEnc returns an empty payload encoder.
func NewEnc() *Enc { return &Enc{} }

func (e *Enc) note(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) { e.note(store.WriteString(&e.buf, s)) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(u uint64) { e.note(store.WriteUvarint(&e.buf, u)) }

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf.WriteByte(b) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	e.Byte(v)
}

// Value appends one scalar in store.WriteValue format.
func (e *Enc) Value(v value.Value) { e.note(store.WriteValue(&e.buf, v)) }

// Bytes appends a length-prefixed byte block.
func (e *Enc) Bytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.buf.Write(p)
}

// Payload returns the encoded payload (or the first error).
func (e *Enc) Payload() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf.Bytes(), nil
}

// Dec decodes one message payload. It remembers its first failure (Err), so
// a caller can tell a malformed payload from a later transport failure.
type Dec struct {
	r   bytes.Reader
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(p []byte) *Dec {
	d := &Dec{}
	d.r.Reset(p)
	return d
}

// Err reports the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

func (d *Dec) note(err error) error {
	if d.err == nil {
		d.err = err
	}
	return err
}

// Len reports the payload bytes not yet decoded.
func (d *Dec) Len() int { return d.r.Len() }

// Count reads an element count. Every element encodes in at least one byte,
// so a count beyond the bytes left is corrupt: Count rejects it, and callers
// may size allocations by what it returns.
func (d *Dec) Count() (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if err := store.CheckCount(&d.r, n); err != nil {
		return 0, d.note(err)
	}
	return int(n), nil
}

// Str reads a length-prefixed string.
func (d *Dec) Str() (string, error) {
	s, err := store.ReadString(&d.r)
	return s, d.note(err)
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) {
	u, err := binary.ReadUvarint(&d.r)
	return u, d.note(err)
}

// Byte reads one raw byte.
func (d *Dec) Byte() (byte, error) {
	b, err := d.r.ReadByte()
	return b, d.note(err)
}

// Bool reads a one-byte bool.
func (d *Dec) Bool() (bool, error) {
	b, err := d.Byte()
	return b != 0, err
}

// Value reads one scalar in store.ReadValue format.
func (d *Dec) Value() (value.Value, error) {
	v, err := store.ReadValue(&d.r)
	return v, d.note(err)
}

// Bytes reads a length-prefixed byte block.
func (d *Dec) Bytes() ([]byte, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(&d.r, p); err != nil {
		return nil, d.note(err)
	}
	return p, nil
}

// EncodeErr builds a TErr payload.
func EncodeErr(code, msg string) []byte {
	e := NewEnc()
	e.Str(code)
	e.Str(msg)
	p, _ := e.Payload()
	return p
}

// DecodeErr parses a TErr payload.
func DecodeErr(payload []byte) (code, msg string, err error) {
	d := NewDec(payload)
	if code, err = d.Str(); err != nil {
		return "", "", err
	}
	if msg, err = d.Str(); err != nil {
		return "", "", err
	}
	return code, msg, nil
}

// Health is the wire form of a server's health report: the session-layer
// fields plus the serving role and, for replicas, replication progress.
type Health struct {
	Role       string // "primary" or "replica"
	Durable    bool
	Degraded   bool
	Cause      string // degradation cause, "" while ok
	Generation uint64
	Tail       uint64 // log records since the last checkpoint
	// Replica progress: batches applied since start, connection state, and
	// the last stream error ("" while healthy).
	Applied   uint64
	Connected bool
	StreamErr string
	// Parallelism is the server's executor worker fan-out (dbpld -parallel).
	Parallelism uint64
	// Materialized-view cache state: enabled flag, live entries, read
	// outcome counters, and queued-delta maintenance backlog.
	MatEnabled    bool
	MatEntries    uint64
	MatHits       uint64
	MatMisses     uint64
	MatMaintained uint64
	MatBacklog    uint64
}

// Encode builds a THealthInfo payload.
func (h Health) Encode() []byte {
	e := NewEnc()
	e.Str(h.Role)
	e.Bool(h.Durable)
	e.Bool(h.Degraded)
	e.Str(h.Cause)
	e.Uvarint(h.Generation)
	e.Uvarint(h.Tail)
	e.Uvarint(h.Applied)
	e.Bool(h.Connected)
	e.Str(h.StreamErr)
	e.Uvarint(h.Parallelism)
	e.Bool(h.MatEnabled)
	e.Uvarint(h.MatEntries)
	e.Uvarint(h.MatHits)
	e.Uvarint(h.MatMisses)
	e.Uvarint(h.MatMaintained)
	e.Uvarint(h.MatBacklog)
	p, _ := e.Payload()
	return p
}

// DecodeHealth parses a THealthInfo payload.
func DecodeHealth(payload []byte) (Health, error) {
	d := NewDec(payload)
	var h Health
	var err error
	if h.Role, err = d.Str(); err != nil {
		return h, err
	}
	if h.Durable, err = d.Bool(); err != nil {
		return h, err
	}
	if h.Degraded, err = d.Bool(); err != nil {
		return h, err
	}
	if h.Cause, err = d.Str(); err != nil {
		return h, err
	}
	if h.Generation, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.Tail, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.Applied, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.Connected, err = d.Bool(); err != nil {
		return h, err
	}
	if h.StreamErr, err = d.Str(); err != nil {
		return h, err
	}
	if h.Parallelism, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatEnabled, err = d.Bool(); err != nil {
		return h, err
	}
	if h.MatEntries, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatHits, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatMisses, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatMaintained, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatBacklog, err = d.Uvarint(); err != nil {
		return h, err
	}
	return h, nil
}
