package multi

// Gen exposes the package's fixture generator to the external test
// package (golden_test.go lives there because internal/scenario imports
// multi).
var Gen = gen
