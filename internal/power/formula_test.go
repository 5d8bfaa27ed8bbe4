package power

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below drive each macromodel with randomized Hamming distances,
// interleaving in-place coefficient refits (the writes internal/charact
// performs) and technology changes, and require every result to be
// bit-equal to the paper's formula evaluated on the model's current
// coefficients. This pins the refit contract: a rewritten coefficient
// takes effect on the very next call.

// perCap is the paper's energy convention, E = (VDD²/4)·C.
func perCap(vdd, c float64) float64 { return vdd * vdd / 4 * c }

func TestDecoderEnergyIsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewDecoderModel(5, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(100) {
		case 0: // refit to characterized coefficients mid-run
			m.CHD = rng.Float64() * 1e-12
			m.CEvent = rng.Float64() * 1e-13
		case 1: // back to the structural closed form
			m.CHD, m.CEvent = 0, 0
		case 2: // technology change
			m.Tech.VDD = 1 + rng.Float64()
		}
		hd := rng.Intn(260) - 5 // negatives and distances past 127
		var want float64
		switch {
		case hd <= 0:
			want = 0
		case m.CHD > 0:
			want = perCap(m.Tech.VDD, m.CHD*float64(hd)+m.CEvent)
		default:
			// E_DEC = (VDD²/4)·(n_I·n_O·C_PD·HD_IN + 2·HD_OUT·C_O), HD_OUT = 1.
			want = perCap(m.Tech.VDD, float64(m.NI)*float64(m.NO)*m.Tech.CPD*float64(hd)+2*1.0*m.Tech.CO)
		}
		if got := m.Energy(hd); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: DecoderModel.Energy(%d) = %x, formula = %x",
				i, hd, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestMuxEnergyIsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewMuxModel(32, 4, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(100) {
		case 0:
			m.CIn = rng.Float64() * 1e-12
			m.CSel = rng.Float64() * 1e-12
			m.COut = rng.Float64() * 1e-12
		case 1:
			m.CClkCycle = rng.Float64() * 1e-13
		case 2:
			m.Tech.VDD = 1 + rng.Float64()
		}
		// Mostly bus-traffic-sized triples, occasionally large ones.
		span := 40
		if rng.Intn(10) == 0 {
			span = 400
		}
		hdIn, hdSel, hdOut := rng.Intn(span)-5, rng.Intn(span)-5, rng.Intn(span)-5
		// E_MUX = (VDD²/4)·(C_in·HD_IN + C_sel·HD_SEL + C_out·HD_OUT).
		want := perCap(m.Tech.VDD, m.CIn*float64(hdIn)+m.CSel*float64(hdSel)+m.COut*float64(hdOut))
		if got := m.Energy(hdIn, hdSel, hdOut); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: MuxModel.Energy(%d,%d,%d) = %x, formula = %x",
				i, hdIn, hdSel, hdOut, math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := m.ClockEnergy(), perCap(m.Tech.VDD, m.CClkCycle); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: ClockEnergy = %x, formula = %x",
				i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestArbiterEnergyIsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewArbiterModel(4, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(100) {
		case 0:
			m.CReq = rng.Float64() * 1e-12
			m.CGrant = rng.Float64() * 1e-12
		case 1:
			m.CHandover = rng.Float64() * 1e-12
			m.CActive = rng.Float64() * 1e-12
		case 2:
			m.Tech.VDD = 1 + rng.Float64()
		}
		span := 18
		if rng.Intn(10) == 0 {
			span = 200 // private-style glitch counts run far past 16 lines
		}
		hdReq, hdGrant := rng.Intn(span)-1, rng.Intn(span)-1
		ho, arb := rng.Intn(2) == 1, rng.Intn(2) == 1
		c := m.CReq*float64(hdReq) + m.CGrant*float64(hdGrant)
		if ho {
			c += m.CHandover
		}
		if arb {
			c += m.CActive
		}
		want := perCap(m.Tech.VDD, c)
		if got := m.Energy(hdReq, hdGrant, ho, arb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: ArbiterModel.Energy(%d,%d,%v,%v) = %x, formula = %x",
				i, hdReq, hdGrant, ho, arb, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestModelsCloneIsolatesCoefficients verifies that Clone gives each run
// its own coefficients: refitting the clone must not leak into the
// original (parallel sweeps clone a shared characterized model set).
func TestModelsCloneIsolatesCoefficients(t *testing.T) {
	orig, err := DefaultModels(2, 3, 32, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	base := orig.M2S.Energy(3, 1, 2)
	cl := orig.Clone()
	cl.M2S.CIn *= 10
	cl.Dec.CHD = 1e-12
	if got := orig.M2S.Energy(3, 1, 2); math.Float64bits(got) != math.Float64bits(base) {
		t.Errorf("mutating the clone changed the original: %x -> %x",
			math.Float64bits(base), math.Float64bits(got))
	}
	if cl.M2S.Energy(3, 1, 2) == base {
		t.Error("clone did not pick up its own coefficients")
	}
}
