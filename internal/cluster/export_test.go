package cluster

// DecodeSpanRuns exposes the entry's span decoder to the external test
// package.
var DecodeSpanRuns = decodeSpanRuns
