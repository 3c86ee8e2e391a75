package main

import "time"

// Host-speed normalisation. This box is shared: the same fixed loop takes
// 1×, 1.6× or 2× as long from one stretch of tens of milliseconds to
// seconds to the next (no steal time is reported; the slow-downs are
// contention for the core and its caches), so raw wall-clock time does not
// repeat. Every batch of ops is therefore bracketed by a fixed calibration
// kernel run on the same goroutine, and the batch's wall time is scaled to
// what a reference host, on which the kernel takes calRefNS, would have
// needed.
//
// The kernel has four phases of about 5 ms each because the program under
// test slows down by a different amount than any single micro-loop does:
// random read-modify-writes over 8 MiB (memory latency), four independent
// xorshift chains (instruction throughput), a closure-threaded toy
// interpreter over 1 MiB (indirect calls and cache-resident loads, the shape
// of the VM's own inner loop) and a byte-wise clear of 15 MiB (store
// throughput, the shape of the kernel's page zeroing, which is half of a
// request's CPU time). Sizing on this box, guest runs over 24 windows of 4 s:
// raw throughput spread 13 % (max/min 1.51); divided by the memory phase
// alone 6 % (1.20); by the first three 4 % (1.15). On a quieter day the
// first three gave 3.3 % (1.09) and all four 2.6 % (1.07); for caratd
// requests the first three gave 4.5 % (1.11) and all four 3.0 % (1.08).
const (
	calRefNS    = 20e6 // the kernel's time on the reference host; frozen
	calMemSteps = 800_000
	calMemWords = 1 << 20 // 8 MiB of uint64
	calILPSteps = 1_800_000
	calToyOps   = 256
	calToyIters = 4000
	calToyWords = 1 << 17 // 1 MiB of uint64
	calZeroLen  = 15 << 20
	calSeed     = 0x9E3779B97F4A7C15
)

type toyState struct {
	regs [16]uint64
	mem  []uint64
}

type calibrator struct {
	buf  []uint64
	zero []byte
	toy  toyState
	prog []func(*toyState)
	sink uint64
	// samples holds every calibration's duration in ns, for the host.*
	// metrics.
	samples []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		buf:     make([]uint64, calMemWords),
		zero:    make([]byte, calZeroLen),
		toy:     toyState{mem: make([]uint64, calToyWords)},
		samples: make([]float64, 0, 8192),
	}
	// The toy program is fixed: the same xorshift stream picks every op.
	x := uint64(calSeed)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const mask = calToyWords - 1
	for i := 0; i < calToyOps; i++ {
		a, b, d := int(next()&15), int(next()&15), int(next()&15)
		var op func(*toyState)
		switch next() % 6 {
		case 0:
			op = func(s *toyState) { s.regs[a] = s.regs[b] + s.regs[d] }
		case 1:
			op = func(s *toyState) { s.regs[a] = s.regs[b] ^ (s.regs[d] >> 3) }
		case 2:
			op = func(s *toyState) { s.regs[a] = s.mem[s.regs[b]&mask] }
		case 3:
			op = func(s *toyState) { s.mem[s.regs[b]&mask] = s.regs[d] }
		case 4:
			op = func(s *toyState) {
				if s.regs[b]&1 == 0 {
					s.regs[a] += 3
				} else {
					s.regs[a] ^= s.regs[d]
				}
			}
		default:
			op = func(s *toyState) { s.regs[a] = s.regs[b]*calSeed + 1 }
		}
		c.prog = append(c.prog, op)
	}
	c.run() // fault the buffers in
	c.samples = c.samples[:0]
	return c
}

// run executes the calibration kernel once and returns its duration in ns.
// The work is the same on every call and nothing is allocated.
func (c *calibrator) run() float64 {
	t0 := time.Now()

	x := uint64(calSeed)
	buf := c.buf
	for i := 0; i < calMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&(calMemWords-1)] += x
	}

	p, q, r, s := uint64(calSeed), uint64(calSeed^0x1234567), uint64(calSeed+99), uint64(calSeed>>1)
	for i := 0; i < calILPSteps; i++ {
		p ^= p << 13
		p ^= p >> 7
		p ^= p << 17
		q ^= q << 13
		q ^= q >> 7
		q ^= q << 17
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
	}

	for i := range c.toy.regs {
		c.toy.regs[i] = uint64(i)*calSeed + 1
	}
	for it := 0; it < calToyIters; it++ {
		for _, op := range c.prog {
			op(&c.toy)
		}
	}

	// An index loop, not a range loop: the compiler turns the range idiom
	// into a memclr call, and the kernel's own zeroing is a loop like this.
	z := c.zero
	for i := 0; i < len(z); i++ {
		z[i] = 0
	}

	c.sink += x + p + q + r + s + c.toy.regs[0] + uint64(z[len(z)/2])
	d := float64(time.Since(t0))
	c.samples = append(c.samples, d)
	return d
}

// factor converts wall time measured between two calibrations into
// reference-host time: normalised = wall × factor.
func factor(calBefore, calAfter float64) float64 {
	return calRefNS / ((calBefore + calAfter) / 2)
}
