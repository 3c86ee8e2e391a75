module carat/benchmark

go 1.22

require carat v0.0.0

replace carat => ../
