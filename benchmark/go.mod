// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it; the
// repro/ path prefix is what lets it import repro/internal/...
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
