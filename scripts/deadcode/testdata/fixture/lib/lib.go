// Package lib holds one function of each kind the deadcode gate must
// classify.
package lib

// Used is called from the root package.
func Used() int { return 1 }

// Dead is exported but referenced nowhere.
func Dead() {}

// TestOnly is referenced only from lib_test.go.
func TestOnly() int { return 2 }

// Oracle is referenced nowhere but listed in the allowlist.
func Oracle() int { return 3 }

// ByLen orders strings by length; its methods are reached only through
// sort.Interface.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }
