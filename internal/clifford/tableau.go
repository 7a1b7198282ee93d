// Package clifford implements an Aaronson–Gottesman (CHP) stabilizer tableau
// simulator. It is the quantum substrate of this repository: surface-code
// syndrome-extraction circuits are pure Clifford circuits, so a stabilizer
// simulator executes exactly the instruction streams the control processor
// issues, at polynomial cost, while modelling genuine quantum behaviour
// (entanglement, measurement back-action, random outcomes).
//
// The tableau holds n destabilizer and n stabilizer generators, stored
// qubit-major as in Stim (Gidney, arXiv:2103.02202): one flat []uint64 holds,
// per qubit, its X column and its Z column, each a bit vector over the 2n
// generator rows, and one more bit vector holds the row signs. A column is
// 2·⌈n/64⌉ words: destabilizer rows in the first half, stabilizer rows in the
// second, so destabilizer i and stabilizer i sit at the same bit of matching
// words. A gate touches only its qubits' columns, updating all 2n rows a word
// at a time — H, S, CNOT and CZ are a handful of word operations on
// O(n/64) words, where a row-major tableau walks O(n) rows per gate.
//
// Measurement keeps CHP's algorithm. A random Z measurement pivots on the
// lowest stabilizer row with an X on the qubit and multiplies every other
// such row by it in one pass over the columns, summing each row's phase in
// bit-sliced mod-4 counters: O(n·n/64) word operations. A deterministic
// outcome is the sign of an ordered product of stabilizer rows; it is read
// from per-column exclusive-prefix parities over the selected rows (O(n)
// words for rows within one 64-row block), or straight from the sign bit
// when a single row is selected. No gate or measurement allocates; only the
// MeasureObservable readout helper builds its observable on the heap.
package clifford

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Tableau is the stabilizer state of n qubits. The zero value is not usable;
// create one with New.
type Tableau struct {
	n  int
	hw int // words per column half (one bit per generator)
	cw int // words per column: destabilizer half, then stabilizer half
	// cols holds X column of qubit q at [2q·cw, (2q+1)·cw) and its Z column
	// at [(2q+1)·cw, (2q+2)·cw); r, the row signs (1 => -1), follows them.
	cols []uint64
	r    []uint64

	// Scratch for random measurements: the rows being multiplied by the
	// pivot and the low/high bits of their mod-4 phase counters.
	sel, lo, hi []uint64

	rng *rand.Rand
}

// New returns a fresh n-qubit tableau initialized to |0...0>, using rng as
// the source of measurement randomness. A nil rng gets a fixed-seed source so
// that zero-config uses are reproducible.
func New(n int, rng *rand.Rand) *Tableau {
	if n <= 0 {
		panic(fmt.Sprintf("clifford: non-positive qubit count %d", n))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	hw := (n + 63) / 64
	t := &Tableau{n: n, hw: hw, cw: 2 * hw, rng: rng}
	t.alloc()
	t.Reset()
	return t
}

func (t *Tableau) alloc() {
	buf := make([]uint64, (2*t.n+4)*t.cw)
	t.cols, buf = buf[:2*t.n*t.cw], buf[2*t.n*t.cw:]
	t.r, buf = buf[:t.cw], buf[t.cw:]
	t.sel, buf = buf[:t.cw], buf[t.cw:]
	t.lo, t.hi = buf[:t.cw], buf[t.cw:]
}

// N returns the number of qubits.
func (t *Tableau) N() int { return t.n }

// SetRNG rebinds the source of measurement randomness. Together with Reset
// this lets a pooled tableau reproduce exactly the state of a fresh
// New(n, rng): the column storage is trial-independent, only the state bits
// and the random stream have to be rewound. A nil rng restores the
// fixed-seed default of New.
func (t *Tableau) SetRNG(rng *rand.Rand) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	t.rng = rng
}

// Reset returns the state to |0...0>: destabilizer i = X_i, stabilizer i = Z_i.
func (t *Tableau) Reset() {
	clear(t.cols)
	clear(t.r)
	for i := 0; i < t.n; i++ {
		t.xcol(i)[i>>6] |= 1 << (uint(i) & 63)
		t.zcol(i)[t.hw+i>>6] |= 1 << (uint(i) & 63)
	}
}

// xcol and zcol return qubit q's X and Z columns.
func (t *Tableau) xcol(q int) []uint64 {
	o := 2 * q * t.cw
	return t.cols[o : o+t.cw : o+t.cw]
}

func (t *Tableau) zcol(q int) []uint64 {
	o := (2*q + 1) * t.cw
	return t.cols[o : o+t.cw : o+t.cw]
}

func (t *Tableau) checkQubit(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("clifford: qubit %d out of range [0,%d)", q, t.n))
	}
}

// H applies a Hadamard gate to qubit q.
func (t *Tableau) H(q int) {
	t.checkQubit(q)
	x, z, r := t.xcol(q), t.zcol(q), t.r
	for i := range x {
		xi, zi := x[i], z[i]
		r[i] ^= xi & zi
		x[i], z[i] = zi, xi
	}
}

// S applies the phase gate S to qubit q.
func (t *Tableau) S(q int) {
	t.checkQubit(q)
	x, z, r := t.xcol(q), t.zcol(q), t.r
	for i := range x {
		r[i] ^= x[i] & z[i]
		z[i] ^= x[i]
	}
}

// SDagger applies the inverse phase gate (Z then S): X → -Y, Y → X.
func (t *Tableau) SDagger(q int) {
	t.checkQubit(q)
	x, z, r := t.xcol(q), t.zcol(q), t.r
	for i := range x {
		r[i] ^= x[i] &^ z[i]
		z[i] ^= x[i]
	}
}

// X applies Pauli-X to qubit q (bit flip). Rows anticommuting with X_q
// (those with a Z component on q) flip sign.
func (t *Tableau) X(q int) {
	t.checkQubit(q)
	z, r := t.zcol(q), t.r
	for i := range z {
		r[i] ^= z[i]
	}
}

// Z applies Pauli-Z to qubit q (phase flip).
func (t *Tableau) Z(q int) {
	t.checkQubit(q)
	x, r := t.xcol(q), t.r
	for i := range x {
		r[i] ^= x[i]
	}
}

// Y applies Pauli-Y to qubit q: it anticommutes with pure-X and pure-Z rows.
func (t *Tableau) Y(q int) {
	t.checkQubit(q)
	x, z, r := t.xcol(q), t.zcol(q), t.r
	for i := range x {
		r[i] ^= x[i] ^ z[i]
	}
}

// CNOT applies a controlled-NOT with control c and target tq.
func (t *Tableau) CNOT(c, tq int) {
	t.checkQubit(c)
	t.checkQubit(tq)
	if c == tq {
		panic("clifford: CNOT control equals target")
	}
	xc, zc, xt, zt, r := t.xcol(c), t.zcol(c), t.xcol(tq), t.zcol(tq), t.r
	for i := range xc {
		r[i] ^= xc[i] & zt[i] &^ (xt[i] ^ zc[i])
		xt[i] ^= xc[i]
		zc[i] ^= zt[i]
	}
}

// CZ applies a controlled-Z between qubits a and b; it equals H on b, CNOT
// a→b, H on b, folded into one pass.
func (t *Tableau) CZ(a, b int) {
	t.checkQubit(a)
	t.checkQubit(b)
	if a == b {
		panic("clifford: CZ on a single qubit")
	}
	xa, za, xb, zb, r := t.xcol(a), t.zcol(a), t.xcol(b), t.zcol(b), t.r
	for i := range xa {
		r[i] ^= xa[i] & xb[i] & (za[i] ^ zb[i])
		za[i] ^= xb[i]
		zb[i] ^= xa[i]
	}
}

// MeasureZ measures qubit q in the computational basis and returns the
// outcome bit. Random outcomes consume one Intn(2) from the tableau's rng.
func (t *Tableau) MeasureZ(q int) int {
	t.checkQubit(q)
	x := t.xcol(q)
	// A stabilizer row with an X component on q makes the outcome random;
	// the lowest such row is the pivot.
	for k := t.hw; k < t.cw; k++ {
		if x[k] != 0 {
			return t.measureRandom(q, k, uint(bits.TrailingZeros64(x[k])))
		}
	}
	// Deterministic: Z_q is the product of the stabilizers paired with the
	// destabilizers that anticommute with it.
	return int(t.productSign(x[:t.hw]))
}

// measureRandom is MeasureZ's random branch, pivoting on the stabilizer row
// at bit b of word k. Every other row with an X on q is multiplied by the
// pivot (row h ← pivot·h), the pivot moves to its destabilizer slot, and the
// pivot row becomes ±Z_q with a random sign.
func (t *Tableau) measureRandom(q, k int, b uint) int {
	bit := uint64(1) << b
	kd := k - t.hw // the pivot's destabilizer word, same bit
	sel, lo, hi := t.sel, t.lo, t.hi
	copy(sel, t.xcol(q))
	sel[k] &^= bit
	clear(lo)
	clear(hi)
	for j := 0; j < t.n; j++ {
		xj, zj := t.xcol(j), t.zcol(j)
		xp, zp := xj[k]>>b&1, zj[k]>>b&1
		if xp|zp != 0 {
			t.rowsumColumn(xj, zj, xp, zp)
		}
		xj[kd] = xj[kd]&^bit | xp<<b
		zj[kd] = zj[kd]&^bit | zp<<b
		xj[k] &^= bit
		zj[k] &^= bit
	}
	// Each multiplied row's product of commuting Paulis has phase
	// 2·(hi) + 2·r_h + 2·r_pivot mod 4; the pivot's destabilizer partner
	// (the one anticommuting row) is overwritten below.
	r := t.r
	rp := -(r[k] >> b & 1)
	for i := range sel {
		r[i] ^= (hi[i] ^ rp) & sel[i]
	}
	r[kd] = r[kd]&^bit | r[k]&bit
	t.zcol(q)[k] |= bit
	out := uint64(t.rng.Intn(2))
	r[k] = r[k]&^bit | out<<b
	return int(out)
}

// rowsumColumn applies one column's share of "multiply every selected row h
// by the pivot": the pivot carries (xp, zp) on this qubit, the rows in t.sel
// pick up its bits, and the CHP phase function g(pivot, h) of each row is
// added into the mod-4 counters (lo, hi).
func (t *Tableau) rowsumColumn(xj, zj []uint64, xp, zp uint64) {
	sel, lo, hi := t.sel, t.lo, t.hi
	xm, zm := -xp, -zp
	for i, s := range sel {
		if s == 0 {
			continue
		}
		x2, z2 := xj[i], zj[i]
		var plus, minus uint64
		switch {
		case xp&zp == 1: // Y: g = z2 - x2
			plus, minus = z2&^x2, x2&^z2
		case xp == 1: // X: g = z2·(2·x2 - 1)
			plus, minus = z2&x2, z2&^x2
		default: // Z: g = x2·(1 - 2·z2)
			plus, minus = x2&^z2, x2&z2
		}
		plus &= s
		minus &= s
		// +1 carries out of the low bit where it was set, -1 borrows where
		// it was clear.
		hi[i] ^= lo[i]&plus | minus&^lo[i]
		lo[i] ^= plus | minus
		xj[i] ^= s & xm
		zj[i] ^= s & zm
	}
}

// productSign returns the sign bit of the ordered product, lowest row first,
// of the stabilizer rows selected by sel (one bit per stabilizer, in
// destabilizer-half word order). The rows commute, so each step of the CHP
// rowsum chain adds an even phase and the total is the XOR of their signs
// plus half the summed phase function mod 4. For every column, the
// accumulated product before row m is the exclusive-prefix parity of the
// selected rows' bits.
func (t *Tableau) productSign(sel []uint64) uint64 {
	k0, k1 := -1, -1
	for k, s := range sel {
		if s != 0 {
			if k0 < 0 {
				k0 = k
			}
			k1 = k
		}
	}
	if k0 < 0 {
		return 0 // the empty product is +I
	}
	r := t.r[t.hw:]
	if k0 == k1 && sel[k0]&(sel[k0]-1) == 0 {
		return r[k0] >> uint(bits.TrailingZeros64(sel[k0])) & 1
	}
	var sign uint64
	for k := k0; k <= k1; k++ {
		sign ^= uint64(bits.OnesCount64(r[k] & sel[k]))
	}
	// Walk the flat column storage with stride 2·cw: qubit j's
	// stabilizer-half X word k sits at 2j·cw + hw + k, its Z word cw on.
	var sum int
	cols, cw := t.cols, t.cw
	for o := t.hw; o < len(cols); o += 2 * cw {
		var cx, cz uint64 // parity of the selected bits in earlier words
		for k := k0; k <= k1; k++ {
			s := sel[k]
			x1, z1 := cols[o+k]&s, cols[o+cw+k]&s
			if x1|z1 == 0 {
				continue
			}
			ix, iz := prefixParity(x1), prefixParity(z1)
			x2, z2 := ix<<1^cx, iz<<1^cz
			cx ^= -(ix >> 63)
			cz ^= -(iz >> 63)
			plus := x1&z1&z2&^x2 | x1&^z1&z2&x2 | z1&^x1&x2&^z2
			minus := x1&z1&x2&^z2 | x1&^z1&z2&^x2 | z1&^x1&x2&z2
			sum += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		}
	}
	return (sign ^ uint64(sum&3)>>1) & 1
}

// prefixParity returns v's inclusive prefix parity: bit i is the XOR of
// bits 0..i of v.
func prefixParity(v uint64) uint64 {
	v ^= v << 1
	v ^= v << 2
	v ^= v << 4
	v ^= v << 8
	v ^= v << 16
	v ^= v << 32
	return v
}

// MeasureX measures qubit q in the X basis (H, MeasureZ, H).
func (t *Tableau) MeasureX(q int) int {
	t.H(q)
	out := t.MeasureZ(q)
	t.H(q)
	return out
}

// Prep0 projects qubit q to |0>: measure and flip on a 1 outcome.
func (t *Tableau) Prep0(q int) {
	if t.MeasureZ(q) == 1 {
		t.X(q)
	}
}

// Prep1 projects qubit q to |1>.
func (t *Tableau) Prep1(q int) {
	if t.MeasureZ(q) == 0 {
		t.X(q)
	}
}

// PrepPlus projects qubit q to |+>.
func (t *Tableau) PrepPlus(q int) {
	if t.MeasureX(q) == 1 {
		t.Z(q)
	}
}

// ExpectationZ returns +1/-1 if Z_q is deterministic in the current state and
// 0 if the outcome would be random. It does not disturb the state.
func (t *Tableau) ExpectationZ(q int) int {
	t.checkQubit(q)
	x := t.xcol(q)
	for _, w := range x[t.hw:] {
		if w != 0 {
			return 0
		}
	}
	return 1 - 2*int(t.productSign(x[:t.hw]))
}

// Pauli is a single-qubit Pauli error used for noise injection.
type Pauli uint8

// Pauli error kinds. PauliI is the identity (no error).
const (
	PauliI Pauli = iota
	PauliX
	PauliY
	PauliZ
)

// String returns I, X, Y or Z.
func (p Pauli) String() string {
	switch p {
	case PauliI:
		return "I"
	case PauliX:
		return "X"
	case PauliY:
		return "Y"
	case PauliZ:
		return "Z"
	}
	return fmt.Sprintf("Pauli(%d)", uint8(p))
}

// ApplyPauli injects a Pauli error on qubit q.
func (t *Tableau) ApplyPauli(q int, p Pauli) {
	switch p {
	case PauliI:
	case PauliX:
		t.X(q)
	case PauliY:
		t.Y(q)
	case PauliZ:
		t.Z(q)
	default:
		panic(fmt.Sprintf("clifford: undefined pauli %d", p))
	}
}

// StabilizerSign returns the sign bit of stabilizer generator i (0 => +1).
func (t *Tableau) StabilizerSign(i int) uint8 {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("clifford: stabilizer index %d out of range", i))
	}
	return uint8(t.r[t.hw+i>>6] >> (uint(i) & 63) & 1)
}

// MeasureObservable measures the expectation of a multi-qubit Pauli product
// without disturbing the state, returning +1/-1 if deterministic, 0 if
// random. xs and zs list qubits carrying X and Z factors respectively (a
// qubit in both lists carries Y up to phase). It is a readout helper for
// tests and harnesses, not a machine operation, and allocates its
// observable.
func (t *Tableau) MeasureObservable(xs, zs []int) int {
	ox := make([]uint64, t.hw)
	oz := make([]uint64, t.hw)
	for _, q := range xs {
		t.checkQubit(q)
		ox[q>>6] |= 1 << (uint(q) & 63)
	}
	for _, q := range zs {
		t.checkQubit(q)
		oz[q>>6] |= 1 << (uint(q) & 63)
	}
	// Row h anticommutes with the observable iff the symplectic product
	// x_h·oz + z_h·ox is odd; collect that bit for every row at once.
	anti := make([]uint64, t.cw)
	for j := 0; j < t.n; j++ {
		m := uint64(1) << (uint(j) & 63)
		if oz[j>>6]&m != 0 {
			xorInto(anti, t.xcol(j))
		}
		if ox[j>>6]&m != 0 {
			xorInto(anti, t.zcol(j))
		}
	}
	// Deterministic iff it commutes with every stabilizer.
	for _, w := range anti[t.hw:] {
		if w != 0 {
			return 0
		}
	}
	// The observable is the product of the stabilizers paired with the
	// destabilizers it anticommutes with; check the product's Pauli part
	// column by column.
	sel := anti[:t.hw]
	for j := 0; j < t.n; j++ {
		xs, zs := t.xcol(j)[t.hw:], t.zcol(j)[t.hw:]
		var px, pz int
		for k, s := range sel {
			px += bits.OnesCount64(xs[k] & s)
			pz += bits.OnesCount64(zs[k] & s)
		}
		if uint64(px&1) != ox[j>>6]>>(uint(j)&63)&1 || uint64(pz&1) != oz[j>>6]>>(uint(j)&63)&1 {
			return 0 // observable not in the stabilizer group
		}
	}
	return 1 - 2*int(t.productSign(sel))
}

func xorInto(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Clone returns an independent deep copy sharing the rng source.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{n: t.n, hw: t.hw, cw: t.cw, rng: t.rng}
	c.alloc()
	copy(c.cols, t.cols)
	copy(c.r, t.r)
	return c
}
