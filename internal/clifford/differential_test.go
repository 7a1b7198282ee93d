package clifford

import (
	"math/rand"
	"testing"
)

// runAgainstOracle interprets prog as a circuit on n qubits, three bytes per
// operation (opcode, a, b), and runs it on a Tableau and on the row-major
// oracle with identically seeded rngs. Every measurement outcome, expectation,
// observable and stabilizer sign must agree, as must the whole tableau (every
// row's Pauli and sign) and the signs of a few wide stabilizer products after
// the last operation.
func runAgainstOracle(t *testing.T, n int, seed int64, prog []byte) {
	t.Helper()
	tb := New(n, rand.New(rand.NewSource(seed)))
	or := newRowTableau(n, rand.New(rand.NewSource(seed)))
	other := func(q int, b byte) int { return (q + 1 + int(b)%(n-1)) % n }
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, a, b := prog[pc]%24, prog[pc+1], prog[pc+2]
		q := int(a) % n
		var got, want int
		switch op {
		case 0, 1:
			tb.H(q)
			or.H(q)
		case 2:
			tb.S(q)
			or.S(q)
		case 3:
			tb.SDagger(q)
			or.SDagger(q)
		case 4:
			tb.X(q)
			or.X(q)
		case 5:
			tb.Y(q)
			or.Y(q)
		case 6:
			tb.Z(q)
			or.Z(q)
		case 7, 8, 9, 10:
			if n > 1 {
				p := other(q, b)
				tb.CNOT(q, p)
				or.CNOT(q, p)
			}
		case 11, 12:
			if n > 1 {
				p := other(q, b)
				tb.CZ(q, p)
				or.CZ(q, p)
			}
		case 13, 14:
			got, want = tb.MeasureZ(q), or.MeasureZ(q)
		case 15:
			got, want = tb.MeasureX(q), or.MeasureX(q)
		case 16:
			tb.Prep0(q)
			or.Prep0(q)
		case 17:
			tb.Prep1(q)
			or.Prep1(q)
		case 18:
			tb.PrepPlus(q)
			or.PrepPlus(q)
		case 19, 20:
			got, want = tb.ExpectationZ(q), or.ExpectationZ(q)
		case 21:
			xs, zs := observable(n, a, b)
			got, want = tb.MeasureObservable(xs, zs), or.MeasureObservable(xs, zs)
		case 22:
			got, want = int(tb.StabilizerSign(q)), int(or.StabilizerSign(q))
		case 23:
			pl := Pauli(b % 4)
			tb.ApplyPauli(q, pl)
			or.ApplyPauli(q, pl)
		}
		if got != want {
			t.Fatalf("n=%d seed=%d op %d (code %d, a=%d, b=%d): tableau %d, oracle %d",
				n, seed, pc/3, op, a, b, got, want)
		}
	}
	// Products of many stabilizers, spread over every word of the
	// stabilizer half, carry X and Z parts across word boundaries: their
	// signs exercise productSign's carry between words, which random
	// measurements seldom reach.
	for i := 0; i < 3 && n > 1; i++ {
		px, pz := make([]uint64, tb.hw), make([]uint64, tb.hw)
		for j := 0; j < n; j++ {
			if (j*7+i*13+int(seed))%3 != 0 {
				continue
			}
			x, z, _ := tb.row(n + j)
			xorInto(px, x)
			xorInto(pz, z)
		}
		var xs, zs []int
		for q := 0; q < n; q++ {
			if px[q>>6]>>(uint(q)&63)&1 == 1 {
				xs = append(xs, q)
			}
			if pz[q>>6]>>(uint(q)&63)&1 == 1 {
				zs = append(zs, q)
			}
		}
		if got, want := tb.MeasureObservable(xs, zs), or.MeasureObservable(xs, zs); got != want {
			t.Fatalf("n=%d seed=%d: stabilizer product %d measures %d, oracle %d", n, seed, i, got, want)
		}
	}
	for row := 0; row < 2*n; row++ {
		x, z, s := tb.row(row)
		for w := range x {
			if x[w] != or.x[row][w] || z[w] != or.z[row][w] {
				t.Fatalf("n=%d seed=%d: row %d Pauli differs from the oracle", n, seed, row)
			}
		}
		if s != or.r[row] {
			t.Fatalf("n=%d seed=%d: row %d sign %d, oracle %d", n, seed, row, s, or.r[row])
		}
	}
}

// observable picks a Pauli product on a window of up to 8 qubits starting
// at b, each factor I, X, Z or Y chosen from a.
func observable(n int, a, b byte) (xs, zs []int) {
	start, width := int(b)%n, 1+int(a)%8
	for i := 0; i < width && i < n; i++ {
		q := (start + i) % n
		switch (int(a)*31 + i*17 + int(b)) % 4 {
		case 1:
			xs = append(xs, q)
		case 2:
			zs = append(zs, q)
		case 3:
			xs = append(xs, q)
			zs = append(zs, q)
		}
	}
	return xs, zs
}

// row gathers generator row i (destabilizers 0..n-1, stabilizers n..2n-1)
// into the oracle's row-major form.
func (t *Tableau) row(i int) (x, z []uint64, sign uint8) {
	k, b := i>>6, uint(i)&63
	if i >= t.n {
		k, b = t.hw+(i-t.n)>>6, uint(i-t.n)&63
	}
	x, z = make([]uint64, t.hw), make([]uint64, t.hw)
	for q := 0; q < t.n; q++ {
		x[q>>6] |= (t.xcol(q)[k] >> b & 1) << (uint(q) & 63)
		z[q>>6] |= (t.zcol(q)[k] >> b & 1) << (uint(q) & 63)
	}
	return x, z, uint8(t.r[k] >> b & 1)
}

// TestTableauMatchesOracle runs thousands of seeded random circuits on 1 to
// 140 qubits, so the 2n-row columns cross 64-bit word boundaries, against
// the row-major oracle outcome for outcome.
func TestTableauMatchesOracle(t *testing.T) {
	circuits := 3000
	if testing.Short() {
		circuits = 300
	}
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < circuits; c++ {
		n := 1 + rng.Intn(140)
		if c%4 == 0 {
			n = 1 + rng.Intn(8) // small tableaus reach deterministic products fast
		}
		prog := make([]byte, 3*(20+rng.Intn(6*n+40)))
		rng.Read(prog)
		runAgainstOracle(t, n, int64(c), prog)
	}
}

// FuzzTableauMatchesOracle is TestTableauMatchesOracle's property over
// arbitrary circuits.
func FuzzTableauMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte{0, 0, 0, 7, 0, 0, 13, 1, 0, 13, 0, 0})
	f.Add(int64(7), uint8(69), []byte{0, 3, 0, 7, 3, 70, 7, 3, 1, 13, 3, 0, 19, 73, 0, 21, 3, 5})
	f.Add(int64(3), uint8(139), []byte{18, 64, 0, 11, 64, 1, 8, 63, 2, 15, 65, 9, 21, 60, 7, 20, 64, 0})
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, prog []byte) {
		runAgainstOracle(t, 1+int(nRaw)%140, seed, prog)
	})
}
