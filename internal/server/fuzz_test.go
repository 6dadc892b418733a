package server

import (
	"testing"

	"repro/internal/value"
	"repro/internal/wire"
)

// FuzzDecodeArgs decodes arbitrary argument blocks, as clients send them with
// TQuery, TStmtQuery and TTxQuery: every input either fails or yields no more
// arguments than the block has bytes, and none panics. Hostile seeds live in
// testdata/fuzz/FuzzDecodeArgs.
func FuzzDecodeArgs(f *testing.F) {
	e := wire.NewEnc()
	e.Uvarint(3)
	e.Value(value.Int(-7))
	e.Value(value.Str("table"))
	e.Value(value.Bool(true))
	p, err := e.Payload()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p)
	f.Fuzz(func(t *testing.T, block []byte) {
		args, err := decodeArgs(wire.NewDec(block))
		if err != nil {
			return
		}
		if len(args) > len(block) {
			t.Fatalf("decoded %d arguments from %d bytes", len(args), len(block))
		}
	})
}
