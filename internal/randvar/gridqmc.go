package randvar

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file holds the GridSampler primitives behind the chipmc grid trial
// body. The Monte Carlo draws its trial fields in pairs: circulant
// embedding draws a *proper* complex white-noise spectrum
// ξ_k = a_k·(g1 + i·g2), and the real and imaginary parts of its inverse
// 2-D DFT are two independent N(0, C) fields (Dietrich–Newsam pairing) — so
// one pair torus plus one (batched) inverse FFT yields two trials, where
// SampleInto keeps only the real part.
//
// DrawPair is the pseudo-random pair draw. The quasi-Monte-Carlo deviate
// source overrides the pair's two D2D scalars and the leading spectral
// modes (the largest per-mode amplitudes, where nearly all of the field
// variance lives) with low-discrepancy deviates through SetMode; the
// remaining modes stay pseudo-random from the pair's own PRNG stream. Both
// channels of an overwritten mode come from coordinates of the *same* Sobol
// point — coordinates of one scrambled point are jointly uniform, so each
// extracted field keeps the exact N(0, C) law and the qmc estimator stays
// unbiased; splitting one mode's two channels across two different
// (mutually dependent) points would not.

// TorusLen returns the number of complex points one pair torus holds
// (tm·tn; 1 when the process has no WID component). Callers allocate batch
// buffers of TorusLen per pair.
func (s *GridSampler) TorusLen() int { return s.tm * s.tn }

// TopModes returns the indices of the max largest-amplitude spectral modes
// in deterministic order (amplitude descending, index ascending on ties).
// These are the modes worth spending low-discrepancy dimensions on: the
// per-mode variance of the sampled field is proportional to scale², so the
// leading handful typically carries most of the within-die field variance.
// Returns fewer than max (possibly none) when the spectrum is smaller or
// the process has no WID component.
func (s *GridSampler) TopModes(max int) []int {
	if max <= 0 || s.scale == nil {
		return nil
	}
	idx := make([]int, 0, len(s.scale))
	for k, a := range s.scale {
		if a > 0 {
			idx = append(idx, k)
		}
	}
	sort.Slice(idx, func(i, j int) bool {
		ai, aj := s.scale[idx[i]], s.scale[idx[j]]
		if ai != aj {
			return ai > aj
		}
		return idx[i] < idx[j]
	})
	if len(idx) > max {
		idx = idx[:max]
	}
	return idx
}

// FillPairSpectrum fills torus (length TorusLen) with one pair's white-noise
// spectrum ξ_k = scale_k·(g1 + i·g2), consuming exactly 2·modes normals from
// rng in mode order — the same order SampleInto uses, so a per-pair PRNG
// stream yields identical spectra at any worker count or batch size.
// Modes with zero amplitude (clamped eigenvalues) are written as zero, and a
// WID-free sampler writes nothing (the torus stays zero). Allocation-free.
func (s *GridSampler) FillPairSpectrum(rng *rand.Rand, torus []complex128) {
	if len(torus) != s.tm*s.tn {
		panic(fmt.Sprintf("randvar: pair torus length %d != %d points", len(torus), s.tm*s.tn))
	}
	for k, a := range s.scale {
		torus[k] = complex(a*rng.NormFloat64(), a*rng.NormFloat64())
	}
}

// DrawPair is the pseudo-random pair draw: it fills torus with the pair's
// white-noise spectrum (FillPairSpectrum), then draws the two trials' raw
// D2D deviates from the same stream and returns them. Drawing the spectrum
// first means a caller that overrides the deviates (the qmc source) leaves
// the spectrum bitwise unchanged. Allocation-free.
func (s *GridSampler) DrawPair(rng *rand.Rand, torus []complex128) (z0a, z0b float64) {
	s.FillPairSpectrum(rng, torus)
	z0a = rng.NormFloat64()
	z0b = rng.NormFloat64()
	return z0a, z0b
}

// SetMode overwrites spectral mode k of a pair torus with the given
// standard-normal pair, scaled by the mode's amplitude — the hook the qmc
// sampler uses to substitute low-discrepancy deviates for the leading modes
// after FillPairSpectrum. k must come from TopModes.
func (s *GridSampler) SetMode(torus []complex128, k int, g1, g2 float64) {
	a := s.scale[k]
	torus[k] = complex(a*g1, a*g2)
}

// ExtractPair reads the two independent fields out of an
// inverse-transformed pair torus: fa gets the real parts shifted by the
// first trial's D2D deviate, fb the imaginary parts shifted by the second's.
// tilt is the importance sampler's mean shift of both raw deviates — the
// D2D components become σ_D2D·(z0a + tilt) and σ_D2D·(z0b + tilt), the WID
// texture is untouched, and at tilt 0 the fields are bitwise untilted
// (z + 0 ≡ z in IEEE 754). Both field slices must have length Sites.
// Allocation-free.
func (s *GridSampler) ExtractPair(torus []complex128, z0a, z0b, tilt float64, fa, fb []float64) {
	g := s.grid
	if len(fa) != g.Sites() || len(fb) != g.Sites() {
		panic(fmt.Sprintf("randvar: pair field lengths %d/%d != %d sites", len(fa), len(fb), g.Sites()))
	}
	shiftA := s.mean + s.sd2d*(z0a+tilt)
	shiftB := s.mean + s.sd2d*(z0b+tilt)
	if s.scale == nil {
		for i := range fa {
			fa[i] = shiftA
			fb[i] = shiftB
		}
		return
	}
	if len(torus) != s.tm*s.tn {
		panic(fmt.Sprintf("randvar: pair torus length %d != %d points", len(torus), s.tm*s.tn))
	}
	for r := 0; r < g.Rows; r++ {
		row := torus[r*s.tn : r*s.tn+g.Cols]
		outA := fa[r*g.Cols : (r+1)*g.Cols]
		outB := fb[r*g.Cols : (r+1)*g.Cols]
		for c := range outA {
			outA[c] = shiftA + real(row[c])
			outB[c] = shiftB + imag(row[c])
		}
	}
}
