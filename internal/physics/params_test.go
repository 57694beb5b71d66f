package physics

import "testing"

func TestDefaultParamsValid(t *testing.T) {
	for _, p := range []Params{TLC(), QLC()} {
		if err := p.Validate(); err != nil {
			t.Errorf("default params invalid: %v", err)
		}
	}
}

func TestStatesAndVoltages(t *testing.T) {
	tlc := TLC()
	if tlc.States() != 8 {
		t.Fatalf("TLC states = %d, want 8", tlc.States())
	}
	qlc := QLC()
	if qlc.States() != 16 {
		t.Fatalf("QLC states = %d, want 16", qlc.States())
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Bits = 0 },
		func(p *Params) { p.Bits = 9 },
		func(p *Params) { p.StateWidth = 0 },
		func(p *Params) { p.ProgramSigma = -1 },
		func(p *Params) { p.EraseSigma = 0 },
		func(p *Params) { p.RetentionT0Hours = 0 },
		func(p *Params) { p.ActivationEnergyEV = 0 },
	}
	for i, mutate := range cases {
		p := TLC()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestNewModelRejectsInvalid(t *testing.T) {
	p := TLC()
	p.Bits = 0
	if _, err := NewModel(p, 1); err == nil {
		t.Fatal("NewModel accepted invalid params")
	}
}
