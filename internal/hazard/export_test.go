package hazard

// RefSweep exposes the sequential reference sweep to the external
// hazard_test package, whose experiments import fixtures that themselves
// import hazard.
var RefSweep = refSweep
