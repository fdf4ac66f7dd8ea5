module github.com/fragmd/fragmd/benchmark

go 1.22

require github.com/fragmd/fragmd v0.0.0

replace github.com/fragmd/fragmd => ../
