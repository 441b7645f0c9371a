package chipmc

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// frozenRoute is one sampler route's recorded trial stream: the per-trial
// chip totals of a KeepTrials run and, for the importance-sampled tail
// routes, the IS summary (P, SE, ISHits, Shift).
type frozenRoute struct {
	name   string
	gates  int
	cfg    func(*Config)
	qmcGrd bool // lower autoDenseLimit so SamplerQMC takes the grid body
	trials []float64
	tail   []float64 // P, SE, ISHits, Shift
}

// frozenTailSpec sits above most of the 36-gate fixture's trials, so the
// tilted proposals see both hits and misses.
const frozenTailSpec = 2.0e-6

// frozenRoutes pins every trial route's draw order: the totals below were
// recorded before the trial engine was unified and must not move. They are
// compared at 1e-12 relative rather than bitwise, so a platform that fuses
// multiply-adds differently does not flake.
var frozenRoutes = []frozenRoute{
	{name: "dense", gates: 36, cfg: func(c *Config) { c.Sampler = SamplerDense },
		trials: []float64{
			1.9298271084109628e-06, 9.99091793221139e-07, 8.1017609815110147e-07,
			2.5461700228974409e-06, 2.4001877021933869e-06, 2.4134998485609651e-06,
			1.2427516934721258e-06, 1.6466474617720154e-06, 1.1192608849128038e-06,
			1.0116229769776085e-06, 2.1340716716273442e-06, 2.761563252120607e-06,
		},
	},
	{name: "fft", gates: 36, cfg: func(c *Config) { c.Sampler = SamplerFFT },
		trials: []float64{
			1.7883655984364918e-06, 6.6049792450271337e-07, 1.0313648841841393e-06,
			2.4244052079368176e-06, 1.7308184730630313e-06, 2.0578811469136324e-06,
			2.2955731063690808e-06, 1.2598261888229771e-06, 9.069129652778309e-07,
			1.4563303234714989e-06, 1.5206674106654478e-06, 3.3574435423059267e-06,
		},
	},
	{name: "qmc-dense", gates: 36, cfg: func(c *Config) { c.Sampler = SamplerQMC },
		trials: []float64{
			1.2154576566272643e-06, 1.1381900774321624e-06, 1.0647616262509819e-06,
			1.3311855182304548e-06, 9.66316291676646e-07, 2.0454431729358239e-06,
			1.7346715355321043e-06, 1.3582993766960153e-06, 1.5649289067482946e-06,
			1.9515859232774655e-06, 1.5417517341049459e-06, 1.1368375567110233e-06,
		},
	},
	{name: "qmc-grid", gates: 36, qmcGrd: true, cfg: func(c *Config) { c.Sampler = SamplerQMC; c.Batch = 3 },
		trials: []float64{
			1.2767470391265334e-06, 1.8290192977781825e-06, 7.7627255802113227e-07,
			1.1611719517836412e-06, 1.5239616177174951e-06, 1.7578568420197381e-06,
			1.0014048197911022e-06, 1.6593337083881796e-06, 1.4623548079762773e-06,
			2.0933400490079624e-06, 1.2470659239976827e-06, 1.6474919097884679e-06,
		},
	},
	{name: "tail-dense", gates: 36, cfg: func(c *Config) {
		c.Sampler = SamplerDense
		c.Tail = &TailConfig{Spec: frozenTailSpec, ISTrials: 48}
	},
		trials: []float64{
			1.9298271084109628e-06, 9.99091793221139e-07, 8.1017609815110147e-07,
			2.5461700228974409e-06, 2.4001877021933869e-06, 2.4134998485609651e-06,
			1.2427516934721258e-06, 1.6466474617720154e-06, 1.1192608849128038e-06,
			1.0116229769776085e-06, 2.1340716716273442e-06, 2.761563252120607e-06,
		},
		tail: []float64{0.1660959854719575, 0.042132831715641951, 14, -0.53791902405794045},
	},
	{name: "tail-grid", gates: 36, cfg: func(c *Config) {
		c.Sampler = SamplerFFT
		c.Tail = &TailConfig{Spec: frozenTailSpec, ISTrials: 48}
	},
		trials: []float64{
			1.7883655984364918e-06, 6.6049792450271337e-07, 1.0313648841841393e-06,
			2.4244052079368176e-06, 1.7308184730630313e-06, 2.0578811469136324e-06,
			2.2955731063690808e-06, 1.2598261888229771e-06, 9.069129652778309e-07,
			1.4563303234714989e-06, 1.5206674106654478e-06, 3.3574435423059267e-06,
		},
		tail: []float64{0.11032708140361672, 0.032697632667776838, 11, -0.58624235022246673},
	},
	{name: "tiled", gates: 64, cfg: func(c *Config) { c.Tiles = 2 },
		trials: []float64{
			3.5675717360585947e-06, 2.7367121600167417e-06, 3.1975332067237446e-06,
			2.9656265760150373e-06, 2.8189886373653886e-06, 2.6002364256323567e-06,
			2.211347603176425e-06, 2.0178037894189917e-06, 2.9365074115307755e-06,
			2.0639623891836934e-06, 2.6106494557510848e-06, 3.1147445211639196e-06,
		},
	},
}

// TestRouteStreamsFrozen runs every route at Workers 1 and 4 and compares
// its trial totals (and tail summary) against the recorded values.
func TestRouteStreamsFrozen(t *testing.T) {
	for i := range frozenRoutes {
		rt := &frozenRoutes[i]
		lib, proc, nl, pl := testSetup(t, rt.gates)
		for _, workers := range []int{1, 4} {
			cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 12, Seed: 17,
				Workers: workers, KeepTrials: true, IncludeVt: true}
			rt.cfg(&cfg)
			old := autoDenseLimit
			if rt.qmcGrd {
				autoDenseLimit = 8
			}
			res, err := Run(cfg, nl, pl)
			autoDenseLimit = old
			if err != nil {
				t.Fatalf("%s workers=%d: %v", rt.name, workers, err)
			}
			var tail []float64
			if res.Tail != nil {
				tail = []float64{res.Tail.P, res.Tail.SE, float64(res.Tail.ISHits), res.Tail.Shift}
			}
			if !closeAll(res.Trials, rt.trials) || !closeAll(tail, rt.tail) {
				t.Errorf("%s workers=%d: stream moved; got\n\ttrials: %s\n\ttail: %s",
					rt.name, workers, goFloats(res.Trials), goFloats(tail))
			}
		}
	}
}

func closeAll(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-12*math.Abs(want[i])) {
			return false
		}
	}
	return true
}

func goFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.17g", x)
	}
	return "[]float64{" + strings.Join(parts, ", ") + "}"
}
