// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` never compiles it: a change to the
// system cannot break, or be broken by, the frozen benchmark at build
// time. The module path keeps the asvm/ prefix because Go admits imports
// of asvm/internal/... from any path below asvm/.
module asvm/bench

go 1.22

require asvm v0.0.0

replace asvm => ../
