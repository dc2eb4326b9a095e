package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = "testdata/fixture"

// TestFixture runs the gate over the fixture module with its checked-in
// allowlist: the dead exported function, the function only a _test.go
// calls and the self-recursive one are reported, the stale allowlist line
// fails the run, and the sort.Interface methods, the allowlisted oracle
// and the root package's exported API are not reported.
func TestFixture(t *testing.T) {
	var out strings.Builder
	ok, err := run([]string{fixture}, filepath.Join(fixture, "allowlist.txt"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("gate passed with dead functions and a stale line:\n%s", out.String())
	}
	for _, want := range []string{
		"fixture/lib.Dead is referenced by no non-test file",
		"fixture/lib.TestOnly is referenced by no non-test file",
		"fixture.helper is referenced by no non-test file",
		"stale allowlist line: fixture/lib.Gone",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, never := range []string{"ByLen", "Oracle", "fixture.API", "lib.Used"} {
		if strings.Contains(out.String(), never) {
			t.Errorf("output reports %s:\n%s", never, out.String())
		}
	}
}

// TestFixtureClean lists every reported function: the gate then passes.
func TestFixtureClean(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allowlist.txt")
	lines := "fixture/lib.Oracle oracle\nfixture/lib.Dead roadmap-1\n\nfixture/lib.TestOnly test-seam\nfixture.helper accessor\n"
	if err := os.WriteFile(allow, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok, err := run([]string{fixture}, allow, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("gate failed on a complete allowlist:\n%s", out.String())
	}
}

// TestAllowlistTags rejects a line without one of the fixed tags.
func TestAllowlistTags(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(allow, []byte("fixture/lib.Oracle keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(allow); err == nil {
		t.Fatal("untagged allowlist line accepted")
	}
}
