package cppcheck

// CFGSeeds exposes the FuzzBuildCFG seed corpus to the external
// fingerprint golden test.
var CFGSeeds = cfgSeeds
