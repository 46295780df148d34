//go:build race

// Package israce reports whether the binary was built with the race
// detector. Tests use it to gate zero-allocation assertions: under
// -race sync.Pool drops items at random and instrumented code
// allocates, so an allocation count says nothing about the code under
// test. Only the count is gated — what such a test checks about
// behaviour runs in both builds.
package israce

// Enabled is true in a -race build.
const Enabled = true
