package sampling

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// sealPlan wraps an uncompressed window payload in a valid plan envelope:
// magic, version, the payload's SHA-256 and its deflated bytes. Fuzzing
// through it reaches the window parser behind the content-hash check,
// which a mutated envelope alone essentially never passes.
func sealPlan(t testing.TB, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.WriteString(planMagic)
	buf.WriteByte(planVersion)
	buf.Write(sum[:])
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// planPayload inflates a sealed plan back to its window payload.
func planPayload(t testing.TB, enc []byte) []byte {
	zr := flate.NewReader(bytes.NewReader(enc[len(planMagic)+1+sha256.Size:]))
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// planAllocBytes returns the bytes allocated while running fn.
func planAllocBytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// FuzzDecodePlan feeds DecodePlan the fuzz input twice: as an envelope,
// and as a window payload sealed into a valid envelope. Plans arrive from
// peers, so it checks:
//
//   - no panic, on either path;
//   - allocation bounded by the input length: the sealed payload is
//     decoded with at most a few times its own size plus fixed headroom,
//     so a fabricated count or length field cannot allocate what the
//     input does not hold (an envelope's inflated size is capped by
//     maxPlanPayloadBytes instead);
//   - on accepted input, decode∘encode is an identity: encoding the
//     decoded windows and decoding that gives back equal windows;
//   - every strict prefix of an accepted input is rejected: a truncated
//     envelope fails to inflate, and a truncated payload, even sealed
//     with a matching hash, fails the window parser.
func FuzzDecodePlan(f *testing.F) {
	// A real workload plan seeds the envelope path. Its window payload is
	// tens of kilobytes (each trace holds at least replaySlack records),
	// so the payload path is seeded from a program that halts within a
	// few dozen instructions: its traces end early, and the payload stays
	// small enough to mutate and minimize quickly.
	b := asm.New("short")
	b.Li(isa.R(2), 6)
	b.Label("loop")
	b.Addi(isa.R(2), isa.R(2), -1)
	b.Bne(isa.R(2), isa.RZero, "loop")
	b.Halt()
	short := b.MustBuild()
	for _, seed := range []struct {
		prog    *isa.Program
		plan    Config
		payload bool
	}{
		{workload.MustProgram("chess"), Config{Windows: 2, FastForward: 1_000, Warmup: 100, Measure: 200}, false},
		{short, Config{Windows: 3, FastForward: 2, Warmup: 1, Measure: 2}, true},
		{short, Config{Windows: 3, FastForward: 2, Warmup: 1, Measure: 2, LiveDecode: true}, true},
	} {
		ws, err := PlanWindows(context.Background(), seed.prog, seed.plan)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := EncodePlan(ws)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if seed.payload {
			payload := planPayload(f, enc)
			f.Add(payload)
			f.Add(payload[:len(payload)/2])
		}
	}
	f.Add([]byte{})
	// A window count far larger than the payload: must fail, not allocate.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlanDecode(t, data, func(b []byte) []byte { return b })

		sealed := sealPlan(t, data)
		var err error
		// The inflate buffer, the decoder's flate and hash state, and the
		// windows decoded from at most len(data) payload bytes.
		if n := planAllocBytes(func() { _, err = DecodePlan(sealed) }); n > 8*uint64(len(data))+256<<10 {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(data), n)
		}
		if err == nil {
			checkPlanDecode(t, data, func(b []byte) []byte { return sealPlan(t, b) })
		}
	})
}

// checkPlanDecode decodes wrap(data) and, when that is accepted, checks
// the identity and truncation properties on data's prefixes.
func checkPlanDecode(t *testing.T, data []byte, wrap func([]byte) []byte) {
	ws, err := DecodePlan(wrap(data))
	if err != nil {
		return
	}
	enc, err := EncodePlan(ws)
	if err != nil {
		t.Fatalf("re-encoding a decoded plan: %v", err)
	}
	again, err := DecodePlan(enc)
	if err != nil {
		t.Fatalf("re-encoded plan does not decode: %v", err)
	}
	if !reflect.DeepEqual(ws, again) {
		t.Fatal("decode(encode(ws)) != ws")
	}
	step := max(1, len(data)/64)
	for cut := len(data) - 1; cut >= 0; cut -= step {
		if _, err := DecodePlan(wrap(data[:cut:cut])); err == nil {
			t.Fatalf("truncated input of %d/%d bytes accepted", cut, len(data))
		}
	}
}
