package workloads

import "math/rand"

// math/rand's default source is an additive lagged-Fibonacci generator
// over a 607-word state with its tap 273 words back (rngLen and rngTap
// in $GOROOT/src/math/rand/rng.go). Each Uint64 output is the sum of
// the outputs 607 and 273 draws earlier, mod 2^64.
const (
	rngLen = 607
	rngTap = 273
)

// draws is the generators' random number supply: the exact continuation
// of a *rand.Rand's Uint64 sequence, produced a block at a time.
//
// r holds two blocks of rngLen consecutive outputs: the one being read
// and the one after it. The first block is real rng.Uint64 outputs.
// Every later block follows from the two before it by the recurrence
// y[k] = y[k-607] + y[k-273], one add per draw instead of one method
// call through rand.Rand's source interface. The recurrence is trusted
// only after it has reproduced the second block of real draws; a source
// it does not fit (any Source64 other than rand.NewSource's) keeps
// filling blocks from rng.Uint64, so draws always yields consecutive
// rng.Uint64 outputs.
//
// draws reads ahead of what it hands out, so it must own the rng: no
// other code may draw from it afterwards.
type draws struct {
	rng   *rand.Rand
	i     uint // next unread slot of r
	exact bool // blocks follow by the recurrence
	r     [2 * rngLen]uint64
}

// init primes both blocks from the rng and checks the recurrence
// against the second.
func (d *draws) init(rng *rand.Rand) {
	d.rng, d.i = rng, 0
	for k := range d.r[:rngLen] {
		d.r[k] = rng.Uint64()
	}
	d.advance()
	d.exact = true
	for k := rngLen; k < len(d.r); k++ {
		if u := rng.Uint64(); u != d.r[k] {
			d.r[k] = u
			d.exact = false
		}
	}
}

// reserve makes at least rngLen draws readable ahead. Generators call
// it once per access, so u64 and intn read the ring without a refill
// check: an access would need over 600 Int31n redraws in a row to run
// past it, which for the generators' bounds (n <= 1000, so a redraw
// has probability below 2^-21) never happens, and would panic on the
// index rather than misdraw if it did.
func (d *draws) reserve() {
	if d.i >= rngLen {
		d.slide()
	}
}

// slide drops the block that has been read and appends the next one.
func (d *draws) slide() {
	copy(d.r[:rngLen], d.r[rngLen:])
	d.i -= rngLen
	if d.exact {
		d.advance()
		return
	}
	for k := rngLen; k < len(d.r); k++ {
		d.r[k] = d.rng.Uint64()
	}
}

// advance fills the second block from the first by the recurrence.
func (d *draws) advance() {
	r := &d.r
	for k := rngLen; k < len(r); k++ {
		r[k] = r[k-rngLen] + r[k-rngTap]
	}
}

// u64 returns the next draw: rng.Uint64's next output.
func (d *draws) u64() uint64 {
	u := d.r[d.i]
	d.i++
	return u
}

// intn returns what rng.Intn(n) would for 0 < n < 2^31. That is
// Int31n: v = the draw's Int63 >> 32, redrawn while above the largest
// multiple of n less one, then v % n. A power of two never redraws and
// its v % n is Int31n's v & (n-1). intn inlines, so a constant n folds
// the bound and turns the modulus into a multiply or a mask.
func (d *draws) intn(n uint32) int {
	for {
		v := uint32(d.u64()>>32) & (1<<31 - 1)
		if v <= (1<<31-1)-(1<<31)%n {
			return int(v % n)
		}
	}
}
