package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/service"
)

// sweepStreamRequested is the batch the sweep-stream tests decode against.
var sweepStreamRequested = []service.RemoteCell{{Key: "k1"}, {Key: "k2"}}

// FuzzSweepStream feeds arbitrary bytes to the coordinator's sweep-stream
// reader: it must never panic, allocate beyond a bound linear in the input,
// return a line for a key that was not requested (or twice for one that
// was), or serve a success whose result names another key; and on every
// stream it accepts, decode∘encode must be the identity.
func FuzzSweepStream(f *testing.F) {
	for _, seed := range []string{
		"",
		`{"key":"k1","result":{"key":"k1","machine":"base"},"source":"executed"}` + "\n" +
			`{"key":"k2","source":"error","error":"boom"}` + "\n",
		`{"key":"k1","result":{"key":"k2"},"source":"peer"}`,
		`{"key":"zz","result":{"key":"zz"},"source":"cache"}` + "\n" + `{"key":"k2","result":{"key":"k2"},"source":"cache"}`,
		`{"key":"k1","result":{"key":"k1"},"source":"cache"}{"key":"k1","result":{"key":"k1","workload":"x"},"source":"cache"}`,
		`{"key":"k1","result":{"key":"k1","result":{"IQOccupancy":{"buckets":[1,2],"total":3}}},"source":"executed"}`,
		`{"key":"k1","res`,
		"null\n[]\n5",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lines, err := readSweepLines(bytes.NewReader(data), sweepStreamRequested)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		seen := make(map[string]bool)
		for _, ln := range lines {
			if ln.Key != "k1" && ln.Key != "k2" {
				t.Fatalf("line for unrequested key %q", ln.Key)
			}
			if seen[ln.Key] {
				t.Fatalf("key %q settled twice", ln.Key)
			}
			seen[ln.Key] = true
			if ln.Source != "error" && ln.Error == "" && ln.Result.Key != ln.Key {
				t.Fatalf("success line for %q carries result %q", ln.Key, ln.Result.Key)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, ln := range lines {
			if err := enc.Encode(ln); err != nil {
				t.Fatalf("re-encoding an accepted line: %v", err)
			}
		}
		again, err := readSweepLines(&buf, sweepStreamRequested)
		if err != nil || !reflect.DeepEqual(again, lines) {
			t.Fatalf("decode∘encode is not the identity: err %v\nfirst:  %+v\nsecond: %+v", err, lines, again)
		}
	})
}

// endlessLines is a peer that never stops streaming lines.
type endlessLines struct {
	line []byte
	off  int
	read int64
}

func (e *endlessLines) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], e.line[e.off:])
		n += c
		e.off = (e.off + c) % len(e.line)
	}
	e.read += int64(n)
	return n, nil
}

// TestSweepStreamBounded: a peer that streams forever — here, lines for a
// key nobody asked for — cannot make the coordinator read past one wire
// bound per requested cell plus one, and none of its lines settle a cell.
func TestSweepStreamBounded(t *testing.T) {
	src := &endlessLines{line: []byte(`{"key":"other","result":{"key":"other"},"source":"executed"}` + "\n")}
	lines, _ := readSweepLines(src, sweepStreamRequested)
	if len(lines) != 0 {
		t.Errorf("%d lines settled from a stream of unrequested keys", len(lines))
	}
	limit := int64(len(sweepStreamRequested)+1) * maxWireBytes
	if src.read > limit+int64(len(src.line)) {
		t.Errorf("read %d bytes, bound is %d", src.read, limit)
	}
}

// TestSweepStreamKeyMismatch: a success line whose result names another
// content address settles as a cell error instead of serving that result.
func TestSweepStreamKeyMismatch(t *testing.T) {
	in := `{"key":"k1","result":{"key":"k2"},"source":"executed"}` + "\n"
	lines, err := readSweepLines(strings.NewReader(in), sweepStreamRequested)
	if err != nil || len(lines) != 1 {
		t.Fatalf("readSweepLines = %+v, %v", lines, err)
	}
	if ln := lines[0]; ln.Key != "k1" || ln.Source != "error" || !strings.Contains(ln.Error, "key mismatch") {
		t.Errorf("mismatched line settled as %+v, want a key-mismatch error for k1", ln)
	}
}
