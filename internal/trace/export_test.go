package trace

// WriteChromeReference exposes the reference encoder to the external test
// package, which records real runs.
var WriteChromeReference = writeChromeReference
