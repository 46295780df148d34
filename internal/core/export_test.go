package core

// DirtyDataset lets the external tests (package core_test, which may
// import packages that import core) build the same fixtures.
var DirtyDataset = dirtyDataset
