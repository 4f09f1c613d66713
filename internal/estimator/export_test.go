package estimator

import (
	"prophet/internal/checker"
	"prophet/internal/uml"
)

// SetCheckHook makes every model check call hook first and returns the
// func that removes it again; tests use it to hold or count checks.
func SetCheckHook(hook func()) (restore func()) {
	orig := checkModel
	checkModel = func(c *checker.Checker, m *uml.Model) *checker.Report {
		hook()
		return orig(c, m)
	}
	return func() { checkModel = orig }
}
