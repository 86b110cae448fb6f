package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads a CPU profile as runtime/pprof writes it (a gzipped
// protocol buffer, see github.com/google/pprof/proto/profile.proto) and
// folds its samples by function name into layers, pipeline stages and
// sampling activities, following the rules in fold.txt.

// stack is one profile sample: its function names from the leaf to the
// root, with inlined calls expanded, and its CPU time in nanoseconds.
type stack struct {
	Funcs []string
	NS    int64
}

// readProfile decodes the samples of a gzipped pprof CPU profile.
func readProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(raw)
}

// pbReader walks the fields of one protocol-buffer message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errors.New("profile: truncated varint")
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("profile: varint overflow")
	return 0
}

// next returns the next field's number and wire type, with its varint
// value or its length-delimited bytes. ok is false at the end or on error.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, ok bool) {
	if r.err != nil || len(r.b) == 0 {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errors.New("profile: truncated fixed64")
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if r.err == nil && n > uint64(len(r.b)) {
			r.err = errors.New("profile: truncated field")
		}
		if r.err != nil {
			return 0, 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errors.New("profile: truncated fixed32")
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("profile: unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, data, r.err == nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := &pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// decodeProfile decodes an uncompressed profile.proto message. The sample
// value taken is the one whose type is "cpu" (nanoseconds).
func decodeProfile(raw []byte) ([]stack, error) {
	type sample struct{ locs, vals []uint64 }
	var (
		samples    []sample
		strs       []string
		valueTypes [][2]uint64 // (type, unit) string indices
		funcName   = map[uint64]uint64{}
		locFuncs   = map[uint64][]uint64{}
	)
	r := &pbReader{b: raw}
	for {
		field, _, _, data, ok := r.next()
		if !ok {
			break
		}
		switch field {
		case 1: // sample_type
			var vt [2]uint64
			m := &pbReader{b: data}
			for f, _, x, _, ok := m.next(); ok; f, _, x, _, ok = m.next() {
				if f == 1 || f == 2 {
					vt[f-1] = x
				}
			}
			valueTypes = append(valueTypes, vt)
		case 2: // sample
			var s sample
			m := &pbReader{b: data}
			for f, w, x, d, ok := m.next(); ok; f, w, x, d, ok = m.next() {
				var err error
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, x, d)
				case 2:
					s.vals, err = uints(s.vals, w, x, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			m := &pbReader{b: data}
			for f, _, x, d, ok := m.next(); ok; f, _, x, d, ok = m.next() {
				switch f {
				case 1:
					id = x
				case 4: // line: function_id = 1
					l := &pbReader{b: d}
					for lf, _, lx, _, ok := l.next(); ok; lf, _, lx, _, ok = l.next() {
						if lf == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: id = 1, name = 2
			var id, name uint64
			m := &pbReader{b: data}
			for f, _, x, _, ok := m.next(); ok; f, _, x, _, ok = m.next() {
				switch f {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.vals) {
			continue
		}
		st := stack{NS: int64(s.vals[col])}
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined call to
			// the function it was inlined into.
			for _, fn := range locFuncs[loc] {
				st.Funcs = append(st.Funcs, str(funcName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// foldRule is one line of fold.txt.
type foldRule struct {
	Kind   string // layer | pass | outer | stage | activity
	Prefix string
	Name   string
}

// foldRules is the parsed mapping, indexed by kind.
type foldRules struct {
	byKind map[string][]foldRule
}

// ruleKinds lists the kinds fold.txt may use and whether each needs a name.
var ruleKinds = map[string]bool{"layer": true, "pass": false, "outer": true, "stage": true, "activity": true}

// parseFold reads fold.txt's format: one "<kind> <prefix> [<name>]" a line,
// # comments and blank lines ignored.
func parseFold(text string) (*foldRules, error) {
	fr := &foldRules{byKind: map[string][]foldRule{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		named, known := ruleKinds[f[0]]
		if !known {
			return nil, fmt.Errorf("fold.txt:%d: unknown rule kind %q", n, f[0])
		}
		want := 2
		if named {
			want = 3
		}
		if len(f) != want {
			return nil, fmt.Errorf("fold.txt:%d: %s rule needs %d fields, has %d", n, f[0], want, len(f))
		}
		r := foldRule{Kind: f[0], Prefix: f[1]}
		if named {
			r.Name = f[2]
		}
		fr.byKind[r.Kind] = append(fr.byKind[r.Kind], r)
	}
	for k := range fr.byKind {
		rules := fr.byKind[k]
		// Longest prefix first, so the first match is the longest.
		sort.SliceStable(rules, func(i, j int) bool { return len(rules[i].Prefix) > len(rules[j].Prefix) })
	}
	return fr, sc.Err()
}

//go:embed fold.txt
var foldText string

// match returns the longest rule of kind whose prefix fn starts with.
func (fr *foldRules) match(kind, fn string) (foldRule, bool) {
	for _, r := range fr.byKind[kind] {
		if strings.HasPrefix(fn, r.Prefix) {
			return r, true
		}
	}
	return foldRule{}, false
}

// first returns the name of kind's rule taken by the frame nearest the
// leaf, or "" when no frame takes one.
func (fr *foldRules) first(kind string, funcs []string) string {
	for _, fn := range funcs {
		if r, ok := fr.match(kind, fn); ok {
			return r.Name
		}
	}
	return ""
}

// layerOf names the layer a stack is charged to, or "" if unattributed.
func (fr *foldRules) layerOf(funcs []string) string {
	for _, fn := range funcs {
		lr, ok := fr.match("layer", fn)
		if !ok {
			continue
		}
		if pr, pass := fr.match("pass", fn); pass && len(pr.Prefix) >= len(lr.Prefix) {
			continue
		}
		return lr.Name
	}
	return fr.first("outer", funcs)
}

// fold is a profile charged to layers, stages and activities, in CPU
// nanoseconds.
type fold struct {
	TotalNS      int64
	Layer        map[string]int64
	Stage        map[string]int64
	Activity     map[string]int64
	LayerAct     map[[2]string]int64 // (layer, activity)
	Unattributed int64
}

// foldStacks charges every sample by the rules.
func (fr *foldRules) foldStacks(stacks []stack) fold {
	f := fold{
		Layer:    map[string]int64{},
		Stage:    map[string]int64{},
		Activity: map[string]int64{},
		LayerAct: map[[2]string]int64{},
	}
	for _, s := range stacks {
		f.TotalNS += s.NS
		layer := fr.layerOf(s.Funcs)
		act := fr.first("activity", s.Funcs)
		if layer == "" {
			f.Unattributed += s.NS
		} else {
			f.Layer[layer] += s.NS
		}
		if st := fr.first("stage", s.Funcs); st != "" {
			f.Stage[st] += s.NS
		}
		if act != "" {
			f.Activity[act] += s.NS
		}
		f.LayerAct[[2]string{layer, act}] += s.NS
	}
	return f
}

// share is ns as a fraction of the profile's total.
func (f fold) share(ns int64) float64 { return ratio(float64(ns), float64(f.TotalNS)) }

// hotStacks merges identical stacks and returns the hottest, first to
// last, until they cover frac of the total time.
func hotStacks(stacks []stack, frac float64) []stack {
	merged := map[string]*stack{}
	var total int64
	for _, s := range stacks {
		k := strings.Join(s.Funcs, ";")
		if m, ok := merged[k]; ok {
			m.NS += s.NS
		} else {
			merged[k] = &stack{Funcs: s.Funcs, NS: s.NS}
		}
		total += s.NS
	}
	all := make([]stack, 0, len(merged))
	for _, m := range merged {
		all = append(all, *m)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].NS != all[j].NS {
			return all[i].NS > all[j].NS
		}
		return strings.Join(all[i].Funcs, ";") < strings.Join(all[j].Funcs, ";")
	})
	var out []stack
	var acc int64
	for _, s := range all {
		if float64(acc) >= frac*float64(total) {
			break
		}
		out = append(out, s)
		acc += s.NS
	}
	return out
}

// writeCollapsed writes stacks in the collapsed format flame-graph tools
// read: frames root first, separated by ';', then a space and the time in
// nanoseconds.
func writeCollapsed(w io.Writer, stacks []stack) error {
	bw := bufio.NewWriter(w)
	for _, s := range stacks {
		for i := len(s.Funcs) - 1; i >= 0; i-- {
			bw.WriteString(s.Funcs[i])
			if i > 0 {
				bw.WriteByte(';')
			}
		}
		fmt.Fprintf(bw, " %d\n", s.NS)
	}
	return bw.Flush()
}

// readCollapsed parses writeCollapsed's format.
func readCollapsed(text string) ([]stack, error) {
	var out []stack
	for n, line := range strings.Split(strings.TrimSpace(text), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("collapsed line %d: no count", n+1)
		}
		var ns int64
		if _, err := fmt.Sscan(line[i+1:], &ns); err != nil {
			return nil, fmt.Errorf("collapsed line %d: %w", n+1, err)
		}
		frames := strings.Split(line[:i], ";")
		for l, r := 0, len(frames)-1; l < r; l, r = l+1, r-1 {
			frames[l], frames[r] = frames[r], frames[l]
		}
		out = append(out, stack{Funcs: frames, NS: ns})
	}
	return out, nil
}
