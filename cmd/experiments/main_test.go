package main

import (
	"os"
	"strings"
	"testing"
)

func TestScaleConfig(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		if _, err := scaleConfig(name); err != nil {
			t.Errorf("scaleConfig(%q): %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "", "Small"} {
		_, err := scaleConfig(name)
		if err == nil || !strings.Contains(err.Error(), "small|medium|large") {
			t.Errorf("scaleConfig(%q) = %v, want an error naming small|medium|large", name, err)
		}
	}
}

// TestUnknownScaleExits2 drives the flag path: an unknown -scale is a
// usage error, reported before any marketplace is generated.
func TestUnknownScaleExits2(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"experiments", "-table2", "-scale", "bogus"}
	if code := realMain(); code != 2 {
		t.Fatalf("realMain() = %d, want 2", code)
	}
}
