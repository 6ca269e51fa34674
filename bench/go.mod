module github.com/sjtucitlab/gfs/bench

go 1.24

require github.com/sjtucitlab/gfs v0.0.0

replace github.com/sjtucitlab/gfs => ../
