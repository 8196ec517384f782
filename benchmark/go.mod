module adaptiveindex/benchmark

go 1.23

require adaptiveindex v0.0.0

replace adaptiveindex => ../
