package emu

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// Both codecs take bytes a peer sent (the window snapshots and predecoded
// traces inside a sampling plan), so each fuzz target checks the same four
// properties on arbitrary input:
//
//   - no panic;
//   - allocation bounded by the input length, so a fabricated length
//     field cannot make the decoder allocate what the input does not hold;
//   - on accepted input, decode∘encode is an identity: re-encoding the
//     decoded value and decoding that gives back an equal value;
//   - every strict prefix of the bytes an accepted decode consumed is
//     rejected: truncation is always detected.

// fuzzSeeds adds real encodings of values recorded from a workload, which
// decode must accept, plus a few corruptions of each.
func fuzzSeeds(f *testing.F, encode func(m *Machine) []byte, decodeErr func([]byte) error) {
	for _, wl := range []string{"chess", "stencil"} {
		m := MustNew(workload.MustProgram(wl))
		m.Run(2_000)
		valid := encode(m)
		if err := decodeErr(valid); err != nil {
			f.Fatalf("%s: seed rejected: %v", wl, err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
	}
	f.Add([]byte{})
	// A record count far larger than the input: must fail, not allocate.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
}

// allocBytes returns the bytes allocated while running fn.
func allocBytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// checkCodec runs the four properties for one decoder on data.
func checkCodec[T any](t *testing.T, data []byte, decode func([]byte) (T, []byte, error), encode func(T) []byte) {
	var v T
	var rest []byte
	var err error
	// Decoded values hold at most the input's bytes plus fixed-size
	// headers; 4x the input and 64 KiB of headroom absorbs slice headers
	// and allocator rounding, and is far below what a trusted length
	// field would allocate.
	if n := allocBytes(func() { v, rest, err = decode(data) }); n > 4*uint64(len(data))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
	}
	if err != nil {
		return
	}
	consumed := data[:len(data)-len(rest)]
	again, rest2, err := decode(encode(v))
	if err != nil || len(rest2) != 0 {
		t.Fatalf("re-encoded value does not decode cleanly: %v (%d bytes left)", err, len(rest2))
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatal("decode(encode(v)) != v")
	}
	step := max(1, len(consumed)/64)
	for cut := len(consumed) - 1; cut >= 0; cut -= step {
		if _, _, err := decode(consumed[:cut:cut]); err == nil {
			t.Fatalf("truncated input of %d/%d bytes accepted", cut, len(consumed))
		}
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	fuzzSeeds(f, func(m *Machine) []byte { return m.Snapshot().AppendBinary(nil) },
		func(b []byte) error { _, _, err := DecodeSnapshot(b); return err })
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data, DecodeSnapshot, func(s *Snapshot) []byte { return s.AppendBinary(nil) })
	})
}

func FuzzDecodePredecode(f *testing.F) {
	fuzzSeeds(f, func(m *Machine) []byte {
		p := NewPredecode(500)
		for i := 0; i < 500; i++ {
			di, ok := m.Step()
			if !ok {
				break
			}
			p.Append(di)
		}
		return p.AppendBinary(nil)
	}, func(b []byte) error { _, _, err := DecodePredecode(b); return err })
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data, DecodePredecode, func(p *Predecode) []byte { return p.AppendBinary(nil) })
	})
}
