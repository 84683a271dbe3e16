package xmltree

// CheckScan lets the external tests, which may import the document
// generators, run the FuzzScan differential.
var CheckScan = checkScan
