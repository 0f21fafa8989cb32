package prodsynth

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurfacePinned regenerates the root package's exported surface
// with `go doc -short .` and compares it with the checked-in api.txt, so
// every addition or removal of a public name is a visible, reviewed diff.
// After a deliberate API change, refresh the file with
//
//	go doc -short . > api.txt
func TestPublicSurfacePinned(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	out, err := exec.Command(goBin, "doc", "-short", ".").Output()
	if err != nil {
		t.Fatalf("go doc -short .: %v", err)
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, pinned := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
	if slices.Equal(got, pinned) {
		return
	}
	for _, l := range pinned {
		if !slices.Contains(got, l) {
			t.Errorf("- %s", l)
		}
	}
	for _, l := range got {
		if !slices.Contains(pinned, l) {
			t.Errorf("+ %s", l)
		}
	}
	t.Error("public surface differs from api.txt (- removed, + added); refresh with: go doc -short . > api.txt")
}
