module dsteiner/bench

go 1.23

require dsteiner v0.0.0

replace dsteiner => ../
