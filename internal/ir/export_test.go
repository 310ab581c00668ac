package ir

// WellFormed exposes the verifier tests' reference module to the
// external round-trip test.
var WellFormed = wellFormed
