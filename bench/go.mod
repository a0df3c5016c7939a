module pathalgebra/bench

go 1.22

require pathalgebra v0.0.0

replace pathalgebra => ../
