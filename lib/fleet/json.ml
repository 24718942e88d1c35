include S4e_obs.Json
