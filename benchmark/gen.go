package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Seeded generator of CARAT-C programs. A program is n functions drawn from
// seven fixed templates plus a main that calls each once. The seed picks
// constants, names and order; it never changes how many functions of each
// template there are or how often a loop runs, so programs of one size cost
// the same whatever the seed, and run-to-run comparisons across seeds stay
// meaningful.
//
// Each template has a Go twin below that computes what the function must
// return. That twin, not the system under test, says what a generated
// program's exit value and printed output are.

const (
	genMask   = 0x7fffffff // every intermediate is masked to 31 bits: no sign, no overflow
	genTmpls  = 7
	tmplCall  = 5
	loopTrips = 32
	arrLen    = 64
	escSlots  = 8
)

// genFunc is one generated function: its template and constants.
type genFunc struct {
	tmpl       int
	a, b, c, d int64
	shift      int64
	callee     int // tmplCall only
}

// program is a generated CARAT-C program and what running it must produce.
type program struct {
	Name    string
	Source  string
	Funcs   int
	Exit    int64
	Outputs []int64
}

func oddConst(r *rand.Rand) int64 { return int64(r.Intn(1<<14))*2 + 3 }

// genProgram builds a program of n functions. salt is folded into main's
// start value; two programs from one rand state but different salts differ
// in source text, which is what keys caratd's module cache.
func genProgram(r *rand.Rand, name string, n int, salt int64) program {
	fs := make([]genFunc, n)
	order := r.Perm(n)
	var plain []int // functions that do not call others: callee candidates
	for i := range fs {
		fs[order[i]].tmpl = i % genTmpls
	}
	for i := range fs {
		if fs[i].tmpl != tmplCall {
			plain = append(plain, i)
		}
	}
	for i := range fs {
		f := &fs[i]
		f.a, f.b, f.c, f.d = oddConst(r), oddConst(r), oddConst(r), oddConst(r)<<8
		f.shift = int64(3 + r.Intn(8))
		if f.tmpl == tmplCall {
			f.callee = plain[r.Intn(len(plain))]
		}
	}

	var sb strings.Builder
	for i, f := range fs {
		switch f.tmpl {
		case 2:
			fmt.Fprintf(&sb, "global g%d: [%d]int;\n", i, arrLen)
		case 6:
			fmt.Fprintf(&sb, "global h%d: [%d]ptr;\n", i, escSlots)
		}
	}
	for i, f := range fs {
		writeFunc(&sb, i, f)
	}
	start := (salt*2654435761 + 12345) & genMask
	fmt.Fprintf(&sb, "func main(): int {\n    var acc = %d;\n", start)
	p := program{Name: name, Funcs: n}
	acc := start
	for i := range fs {
		fmt.Fprintf(&sb, "    acc = (acc ^ f%d(acc)) & %d;\n", i, genMask)
		acc = (acc ^ evalFunc(fs, i, acc)) & genMask
		if i%16 == 15 || i == n-1 {
			sb.WriteString("    print_int(acc);\n")
			p.Outputs = append(p.Outputs, acc)
		}
	}
	sb.WriteString("    return acc;\n}\n")
	p.Source = sb.String()
	p.Exit = acc
	return p
}

func writeFunc(sb *strings.Builder, i int, f genFunc) {
	fmt.Fprintf(sb, "func f%d(x: int): int {\n", i)
	switch f.tmpl {
	case 0: // straight-line arithmetic
		fmt.Fprintf(sb, "    var a = (x * %d + %d) & %d;\n", f.a, f.b, genMask)
		fmt.Fprintf(sb, "    var b = (a ^ (a >> %d)) & %d;\n", f.shift, genMask)
		fmt.Fprintf(sb, "    return (a + b * %d) & %d;\n", f.c, genMask)
	case 1: // counted loop over scalars
		fmt.Fprintf(sb, "    var s = x & %d;\n", genMask)
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { s = (s * %d + i) & %d; }\n", loopTrips, f.a, genMask)
		sb.WriteString("    return s;\n")
	case 2: // global array: fill, then gather
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { g%d[i] = (x + i * %d) & %d; }\n", arrLen, i, f.a, genMask)
		sb.WriteString("    var s = 0;\n")
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { s = (s + g%d[(i * %d) & %d]) & %d; }\n", arrLen, i, f.b, arrLen-1, genMask)
		sb.WriteString("    return s;\n")
	case 3: // heap block: allocate, fill, sum, free
		fmt.Fprintf(sb, "    var p = malloc(%d);\n", 8*loopTrips)
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { p[i] = (x ^ (i * %d)) & %d; }\n", loopTrips, f.a, genMask)
		sb.WriteString("    var s = 0;\n")
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { s = (s + p[i]) & %d; }\n", loopTrips, genMask)
		sb.WriteString("    free(p);\n    return s;\n")
	case 4: // branches and a short-circuit condition
		fmt.Fprintf(sb, "    var r = x & %d;\n", genMask)
		fmt.Fprintf(sb, "    if ((r & 3) == 0) { r = (r * %d) & %d; } else if ((r & 3) == 1) { r = (r + %d) & %d; } else { r = (r ^ %d) & %d; }\n",
			f.a, genMask, f.b, genMask, f.c, genMask)
		fmt.Fprintf(sb, "    if (r > %d && (r & 1) == 1) { r = (r >> 1) | 1; }\n", f.d)
		sb.WriteString("    return r;\n")
	case tmplCall: // call into another generated function
		fmt.Fprintf(sb, "    return (f%d((x + %d) & %d) + %d) & %d;\n", f.callee, f.a, genMask, f.b, genMask)
	case 6: // pointers stored to memory: escapes the runtime must track
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { var q = malloc(64); q[0] = (x + i * %d) & %d; h%d[i] = q; }\n", escSlots, f.a, genMask, i)
		sb.WriteString("    var s = 0;\n")
		fmt.Fprintf(sb, "    for (var i = 0; i < %d; i = i + 1) { var q = h%d[i]; s = (s + q[0]) & %d; free(q); }\n", escSlots, i, genMask)
		sb.WriteString("    return s;\n")
	}
	sb.WriteString("}\n")
}

// evalFunc is the Go twin of writeFunc: what f_i(x) returns.
func evalFunc(fs []genFunc, i int, x int64) int64 {
	f := fs[i]
	switch f.tmpl {
	case 0:
		a := (x*f.a + f.b) & genMask
		b := (a ^ (a >> f.shift)) & genMask
		return (a + b*f.c) & genMask
	case 1:
		s := x & genMask
		for i := int64(0); i < loopTrips; i++ {
			s = (s*f.a + i) & genMask
		}
		return s
	case 2:
		var g [arrLen]int64
		for i := int64(0); i < arrLen; i++ {
			g[i] = (x + i*f.a) & genMask
		}
		s := int64(0)
		for i := int64(0); i < arrLen; i++ {
			s = (s + g[(i*f.b)&(arrLen-1)]) & genMask
		}
		return s
	case 3:
		s := int64(0)
		for i := int64(0); i < loopTrips; i++ {
			s = (s + (x^(i*f.a))&genMask) & genMask
		}
		return s
	case 4:
		r := x & genMask
		switch r & 3 {
		case 0:
			r = (r * f.a) & genMask
		case 1:
			r = (r + f.b) & genMask
		default:
			r = (r ^ f.c) & genMask
		}
		if r > f.d && r&1 == 1 {
			r = r>>1 | 1
		}
		return r
	case tmplCall:
		return (evalFunc(fs, f.callee, (x+f.a)&genMask) + f.b) & genMask
	default:
		s := int64(0)
		for i := int64(0); i < escSlots; i++ {
			s = (s + (x+i*f.a)&genMask) & genMask
		}
		return s
	}
}

// inputsHash fingerprints generated inputs so two runs can show they were
// fed the same thing.
type inputsHash struct{ h [32]byte }

func (ih *inputsHash) add(parts ...string) {
	hh := sha256.New()
	hh.Write(ih.h[:])
	for _, p := range parts {
		hh.Write([]byte(p))
		hh.Write([]byte{0})
	}
	copy(ih.h[:], hh.Sum(nil))
}

func (ih *inputsHash) String() string { return hex.EncodeToString(ih.h[:]) }

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s by inverting a
// precomputed CDF (math/rand's Zipf needs s>1 and has no finite support).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	t := 0.0
	for i := range z.cdf {
		t += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = t
	}
	for i := range z.cdf {
		z.cdf[i] /= t
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
