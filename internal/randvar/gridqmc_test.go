package randvar

import (
	"math"
	"testing"

	"leakest/internal/fft"
	"leakest/internal/linalg"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func qmcTestSampler(t testing.TB, rows, cols int) *GridSampler {
	t.Helper()
	proc := &spatial.Process{
		LNominal: 0.1,
		SigmaD2D: 0,
		SigmaWID: 0.004,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 3, R: 6},
	}
	grid := placement.Grid{Rows: rows, Cols: cols, SiteW: 2, SiteH: 2}
	s, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatalf("NewGridSampler(%dx%d): %v", rows, cols, err)
	}
	return s
}

// TestTopModesOrder pins the deterministic mode ranking the qmc sampler's
// dimension assignment depends on: amplitudes non-increasing, ties broken
// by ascending index, truncation at max, and nil for max ≤ 0.
func TestTopModesOrder(t *testing.T) {
	s := qmcTestSampler(t, 8, 8)
	all := s.TopModes(s.TorusLen())
	if len(all) == 0 {
		t.Fatal("no positive-amplitude modes on a WID sampler")
	}
	for i := 1; i < len(all); i++ {
		ai, aj := s.scale[all[i-1]], s.scale[all[i]]
		if ai < aj || (ai == aj && all[i-1] >= all[i]) {
			t.Fatalf("mode order violated at %d: (%d, %g) before (%d, %g)",
				i, all[i-1], ai, all[i], aj)
		}
	}
	top := s.TopModes(17)
	if len(top) != 17 {
		t.Fatalf("TopModes(17) returned %d modes", len(top))
	}
	for i, k := range top {
		if k != all[i] {
			t.Fatalf("truncated ranking diverges at %d: %d vs %d", i, k, all[i])
		}
	}
	if s.TopModes(0) != nil || s.TopModes(-1) != nil {
		t.Fatal("TopModes(≤0) must be nil")
	}
}

// TestPairRealChannelMatchesSampleInto is the frozen-law anchor of the
// Dietrich–Newsam pairing: feeding FillPairSpectrum from the same PRNG
// stream SampleInto would use (D2D deviate first, then the spectrum in mode
// order), the pair's REAL channel must reproduce SampleInto's field
// bitwise — the imaginary channel is the extra, independent field.
func TestPairRealChannelMatchesSampleInto(t *testing.T) {
	s := qmcTestSampler(t, 6, 10)
	sc := s.NewScratch()
	sites := s.Grid().Sites()
	ref := make([]float64, sites)
	fa := make([]float64, sites)
	fb := make([]float64, sites)
	torus := make([]complex128, s.TorusLen())
	tm, tn := s.TorusDims()
	for seed := int64(1); seed <= 5; seed++ {
		rngA := stats.NewRNG(seed, "pair-ref")
		if err := s.SampleInto(rngA, sc, ref); err != nil {
			t.Fatal(err)
		}
		rngB := stats.NewRNG(seed, "pair-ref")
		z0 := rngB.NormFloat64()
		s.FillPairSpectrum(rngB, torus)
		if err := fft.Transform2D(torus, tm, tn, true); err != nil {
			t.Fatal(err)
		}
		s.ExtractPair(torus, z0, -z0, 0, fa, fb)
		for i := range ref {
			if fa[i] != ref[i] {
				t.Fatalf("seed %d site %d: pair real channel %v != SampleInto %v",
					seed, i, fa[i], ref[i])
			}
			if math.IsNaN(fb[i]) {
				t.Fatalf("seed %d site %d: NaN in imaginary channel", seed, i)
			}
		}
	}
}

// TestPairImagChannelLaw checks the second field statistically: the
// imaginary channel must carry the same marginal variance and lag
// correlation as the real one and be uncorrelated with it (independent
// white-noise channels). 6000 pairs put the 5σ band at ≈9% relative.
func TestPairImagChannelLaw(t *testing.T) {
	s := qmcTestSampler(t, 4, 4)
	const pairs = 6000
	torus := make([]complex128, s.TorusLen())
	tm, tn := s.TorusDims()
	sites := s.Grid().Sites()
	fa := make([]float64, sites)
	fb := make([]float64, sites)
	rng := stats.NewRNG(7, "pair-law")
	// Track site 0 and its row neighbour (lag = one pitch) on both channels.
	a0 := make([]float64, pairs)
	a1 := make([]float64, pairs)
	b0 := make([]float64, pairs)
	b1 := make([]float64, pairs)
	for p := 0; p < pairs; p++ {
		s.FillPairSpectrum(rng, torus)
		if err := fft.Transform2D(torus, tm, tn, true); err != nil {
			t.Fatal(err)
		}
		s.ExtractPair(torus, rng.NormFloat64(), rng.NormFloat64(), 0, fa, fb)
		a0[p], a1[p] = fa[0], fa[1]
		b0[p], b1[p] = fb[0], fb[1]
	}
	const vw = 0.004 * 0.004
	z := 5.0 / math.Sqrt(pairs)                    // 5σ band for a correlation estimate
	vtol := 5 * vw * math.Sqrt2 / math.Sqrt(pairs) // 5σ band for a variance
	wantRho := spatial.TruncatedExpCorr{Lambda: 3, R: 6}.Rho(2)
	for name, c := range map[string][]float64{"real": a0, "imag": b0} {
		if v := stats.Variance(c); math.Abs(v-vw) > vtol {
			t.Errorf("%s channel variance %.4g, want %.4g ± %.2g", name, v, vw, vtol)
		}
	}
	if r := stats.Correlation(a0, a1); math.Abs(r-wantRho) > z {
		t.Errorf("real channel lag-1 correlation %.4f, want %.4f ± %.4f", r, wantRho, z)
	}
	if r := stats.Correlation(b0, b1); math.Abs(r-wantRho) > z {
		t.Errorf("imag channel lag-1 correlation %.4f, want %.4f ± %.4f", r, wantRho, z)
	}
	if r := stats.Correlation(a0, b0); math.Abs(r) > z {
		t.Errorf("cross-channel correlation %.4f, want 0 ± %.4f", r, z)
	}
}

// TestSetModeOverride: SetMode must reproduce exactly what FillPairSpectrum
// writes for the same deviates, and changing a mode's deviates changes only
// that entry.
func TestSetModeOverride(t *testing.T) {
	s := qmcTestSampler(t, 4, 4)
	torus := make([]complex128, s.TorusLen())
	rng := stats.NewRNG(3, "setmode")
	s.FillPairSpectrum(rng, torus)
	ref := append([]complex128(nil), torus...)
	top := s.TopModes(4)
	for _, k := range top {
		g1 := real(ref[k]) / s.scale[k]
		g2 := imag(ref[k]) / s.scale[k]
		s.SetMode(torus, k, g1, g2)
		if torus[k] != ref[k] {
			t.Fatalf("SetMode(%d) with identical deviates changed the entry", k)
		}
		s.SetMode(torus, k, g1+1, g2)
		if torus[k] == ref[k] {
			t.Fatalf("SetMode(%d) with different deviates left the entry", k)
		}
		s.SetMode(torus, k, g1, g2)
	}
	for i := range torus {
		if torus[i] != ref[i] {
			t.Fatalf("entry %d changed by SetMode round-trip", i)
		}
	}
}

// TestSamplePartialInto pins the dense-qmc hook: with fixed = 0 it is
// bitwise SampleInto; with fixed = n it consumes nothing from the PRNG and
// is a pure deterministic map of the supplied deviates.
func TestSamplePartialInto(t *testing.T) {
	const n = 6
	mean := make([]float64, n)
	cov := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cov.Set(i, j, 2*math.Pow(0.5, math.Abs(float64(i-j))))
		}
	}
	s, err := NewMVNSampler(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	out1 := make([]float64, n)
	out2 := make([]float64, n)
	rng1 := stats.NewRNG(11, "partial")
	rng2 := stats.NewRNG(11, "partial")
	for i := 0; i < 20; i++ {
		s.SampleInto(rng1, z1, out1)
		s.SamplePartialInto(rng2, z2, out2, 0)
		for j := range out1 {
			if out1[j] != out2[j] {
				t.Fatalf("draw %d dim %d: fixed=0 %v != SampleInto %v", i, j, out2[j], out1[j])
			}
		}
	}
	// fixed = n: the result must be a pure map of the supplied deviates,
	// independent of the PRNG handed in.
	for j := range z1 {
		z1[j] = float64(j) - 2
	}
	copy(z2, z1)
	s.SamplePartialInto(stats.NewRNG(11, "partial-unused"), z1, out1, n)
	s.SamplePartialInto(stats.NewRNG(99, "partial-other"), z2, out2, n)
	for j := range out1 {
		if out1[j] != out2[j] {
			t.Fatalf("fixed=n dim %d depends on the PRNG: %v vs %v", j, out1[j], out2[j])
		}
	}
	for _, bad := range []int{-1, n + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fixed=%d must panic", bad)
				}
			}()
			s.SamplePartialInto(rng1, z1, out1, bad)
		}()
	}
}

// FuzzBatchedDraw fuzzes the batched pair-field pipeline against the
// unbatched one: for arbitrary small grids (odd and even, non-square) and
// batch sizes, filling the same pair spectra and transforming them through
// one Transform2DBatchInto pass must reproduce the per-pair
// Transform2D fields bitwise, with every site finite.
func FuzzBatchedDraw(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(3), int64(1))
	f.Add(uint8(1), uint8(7), uint8(1), int64(9))
	f.Add(uint8(5), uint8(2), uint8(4), int64(-3))
	f.Fuzz(func(t *testing.T, rows8, cols8, pairs8 uint8, seed int64) {
		rows := int(rows8)%8 + 1
		cols := int(cols8)%8 + 1
		batchPairs := int(pairs8)%5 + 1
		s := qmcTestSampler(t, rows, cols)
		tm, tn := s.TorusDims()
		tlen := s.TorusLen()
		sites := s.Grid().Sites()
		batched := make([]complex128, batchPairs*tlen)
		single := make([]complex128, tlen)
		stream := stats.NewStream(seed, "fuzz-batch#")
		rng := stats.NewRNG(seed, "fuzz-batch-z0")
		z0 := make([]float64, 2*batchPairs)
		for i := range z0 {
			z0[i] = rng.NormFloat64()
		}
		fill := func(p int, dst []complex128) {
			prng := stats.NewRNG(stream.SeedFor(p), "pair")
			s.FillPairSpectrum(prng, dst)
		}
		for p := 0; p < batchPairs; p++ {
			fill(p, batched[p*tlen:(p+1)*tlen])
		}
		if err := fft.Transform2DBatchInto(batched, batchPairs, tm, tn, tn, true); err != nil {
			t.Fatal(err)
		}
		fa := make([]float64, sites)
		fb := make([]float64, sites)
		ra := make([]float64, sites)
		rb := make([]float64, sites)
		for p := 0; p < batchPairs; p++ {
			fill(p, single)
			if err := fft.Transform2D(single, tm, tn, true); err != nil {
				t.Fatal(err)
			}
			s.ExtractPair(single, z0[2*p], z0[2*p+1], 0, ra, rb)
			s.ExtractPair(batched[p*tlen:(p+1)*tlen], z0[2*p], z0[2*p+1], 0, fa, fb)
			for i := 0; i < sites; i++ {
				if fa[i] != ra[i] || fb[i] != rb[i] {
					t.Fatalf("%dx%d batch=%d pair %d site %d: batched (%v, %v) != single (%v, %v)",
						rows, cols, batchPairs, p, i, fa[i], fb[i], ra[i], rb[i])
				}
				if math.IsNaN(fa[i]) || math.IsInf(fa[i], 0) || math.IsNaN(fb[i]) || math.IsInf(fb[i], 0) {
					t.Fatalf("non-finite site %d in pair %d", i, p)
				}
			}
		}
	})
}
