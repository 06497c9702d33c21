// cmperf is a module of its own so that nothing in it is built, vetted or
// tested with the simulator, and nothing outside bench/ has to change when it
// does. The import path keeps the "repro/" prefix so the simulator's internal
// packages stay importable.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
