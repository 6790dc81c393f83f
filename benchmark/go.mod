module peas/benchmark

go 1.22

require peas v0.0.0

replace peas => ../
