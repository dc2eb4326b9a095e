// Package fixture is the root package of the deadcode self-test module:
// its exported API is exempt, and it is the one caller of lib.Used.
package fixture

import (
	"sort"

	"fixture/lib"
)

// API is exported from the root package, so it needs no caller.
func API(words []string) int {
	sort.Sort(lib.ByLen(words))
	return lib.Used()
}

// helper is unexported and referenced only by itself.
func helper(n int) int {
	if n == 0 {
		return 0
	}
	return helper(n - 1)
}
