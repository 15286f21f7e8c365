module github.com/caisplatform/caisp/bench

go 1.22

require github.com/caisplatform/caisp v0.0.0

replace github.com/caisplatform/caisp => ../
