(* Kept for callers that name the summary type through this module; the
   record and its percentile convention live in [Stellar_obs.Report]. *)
type summary = Stellar_obs.Report.quantiles
