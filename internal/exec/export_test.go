package exec

// Hooks for the external exec_test package, which plans the exec benchmark's
// statements with the optimizer and so cannot live inside this package.

// RenderResult is the differential suite's byte-exact rendering of a Result.
var RenderResult = renderResult

// RunReference runs a plan on the reference interpreter (reference_test.go).
func (e *Executor) RunReference(p *Plan, columns []string) (*Result, error) {
	return e.runReference(p, columns)
}
