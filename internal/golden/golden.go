// Package golden pins test output to recorded files: a test renders its
// answers as text lines and Check compares them with testdata/<name>. An
// intentional answer change is made by rerunning the tests with -update and
// reviewing the resulting git diff of the golden files.
package golden

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// header is the first line of every golden file.
const header = "# Recorded answers; floats are IEEE-754 bit patterns with the decimal value in parentheses. Regenerate: go test . ./internal/core ./internal/kmst ./internal/pcst -run Golden -update"

// Check compares lines with the golden file testdata/<name> of the calling
// test's package, failing on the first line that differs. Under -update it
// rewrites the file instead.
func Check(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	lines = append([]string{header}, lines...)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (record it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(lines) && i < len(want); i++ {
		if lines[i] != want[i] {
			t.Fatalf("%s:%d differs\n got %s\nwant %s", path, i+1, lines[i], want[i])
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%s: got %d lines, want %d", path, len(lines), len(want))
	}
}

// Float renders x exactly (its bit pattern) and readably (its decimal value).
func Float(x float64) string {
	return fmt.Sprintf("%016x(%g)", math.Float64bits(x), x)
}
