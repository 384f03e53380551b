module cubicleos/benchmark

go 1.22

require cubicleos v0.0.0

replace cubicleos => ../
