// The benchmark is a module of its own so the repository's build and
// tier-1 test set (`go build ./... && go test ./...` at the root) do not
// change with it. Its import path sits under `sidq/`, which is what lets
// it import `sidq/internal/...`; the replace points at the checkout it is
// run from, so it always measures the source next to it.
module sidq/benchmark

go 1.22

require sidq v0.0.0

replace sidq => ../
