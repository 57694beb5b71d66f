package ecc

import (
	"testing"

	"sentinel3d/internal/flash"
)

func TestCapabilityValidate(t *testing.T) {
	if err := (CapabilityModel{FrameBits: 8192, T: 40}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := CapabilityModel{FrameBits: 0, T: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero frame bits")
	}
	bad = CapabilityModel{FrameBits: 100, T: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative T")
	}
}

func TestDecodePageThreshold(t *testing.T) {
	m := CapabilityModel{FrameBits: 128, T: 3}
	errs := flash.NewBitmap(256)
	// 3 errors in frame 0: decodes.
	for _, i := range []int{0, 64, 127} {
		errs.Set(i, true)
	}
	if !m.DecodePage(errs, 256) {
		t.Fatal("page with T errors per frame should decode")
	}
	// A 4th error in frame 0 breaks it.
	errs.Set(100, true)
	if m.DecodePage(errs, 256) {
		t.Fatal("frame over capability decoded")
	}
	// Errors spread over both frames decode again.
	errs.Set(100, false)
	errs.Set(200, true)
	errs.Set(201, true)
	errs.Set(202, true)
	if !m.DecodePage(errs, 256) {
		t.Fatal("spread errors should decode")
	}
	errs.Set(203, true)
	if m.DecodePage(errs, 256) {
		t.Fatal("frame 1 over capability decoded")
	}
}

func TestDecodePagePartialLastFrame(t *testing.T) {
	m := CapabilityModel{FrameBits: 128, T: 1}
	errs := flash.NewBitmap(192) // frames: [0,128), [128,192)
	errs.Set(130, true)
	if !m.DecodePage(errs, 192) {
		t.Fatal("one error in short frame should decode")
	}
	errs.Set(131, true)
	if m.DecodePage(errs, 192) {
		t.Fatal("two errors in short frame decoded with T=1")
	}
}
