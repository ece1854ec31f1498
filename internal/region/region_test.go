package region

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/nand"
)

func TestDefaultRegion(t *testing.T) {
	m := NewManager(Region{})
	def := m.Default()
	if def.Name != "default" {
		t.Fatalf("unnamed default region should be called 'default', got %q", def.Name)
	}
	if got := m.For(42); got.Name != "default" {
		t.Fatalf("unassigned object must fall back to the default region, got %+v", got)
	}
}

func TestAssign(t *testing.T) {
	m := NewManager(Region{Name: "base", Scheme: core.Scheme{}})
	hot := Region{Name: "hot", Scheme: core.Scheme{N: 2, M: 4}, FlashMode: nand.ModePSLC}
	m.Assign(7, hot)
	if got := m.For(7); got.Name != "hot" || !got.Scheme.Enabled() {
		t.Fatalf("assignment not effective: %+v", got)
	}
	if got := m.For(8); got.Name != "base" {
		t.Fatalf("other objects must keep the default region")
	}
}

func TestRegionString(t *testing.T) {
	r := Region{Name: "accounts", Scheme: core.Scheme{N: 2, M: 4}, FlashMode: nand.ModePSLC}
	if s := r.String(); s != "accounts[2x4,pSLC]" {
		t.Fatalf("String = %q", s)
	}
}
