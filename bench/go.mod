// The benchmark is a module of its own so that it builds apart from
// the program it measures. Its path sits under "entityid/" so that the
// traced run (cmd/etrace) may import entityid/internal/...; the
// black-box driver (cmd/ebench) imports nothing from entityid.
module entityid/bench

go 1.24

require entityid v0.0.0

replace entityid => ../
