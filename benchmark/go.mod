module hydra/benchmark

go 1.24

require hydra v0.0.0

replace hydra => ../
