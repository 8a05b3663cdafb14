type t = {
  labeled : int;
  auto_determined : int;
  still_informative : int;
  total : int;
  labeled_pct : float;
  auto_pct : float;
  version_space : float;
  scoring : Metrics.snapshot;
}

let pct part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let of_engine eng =
  let labeled = Session.asked eng in
  let _, decided_tuples = Session.decided_totals eng in
  let total = Sigclass.total_rows (Session.classes eng) in
  let auto_determined = max 0 (decided_tuples - labeled) in
  {
    labeled;
    auto_determined;
    still_informative = total - decided_tuples;
    total;
    labeled_pct = pct labeled total;
    auto_pct = pct auto_determined total;
    version_space = Version_space.count (Session.state eng);
    scoring = Session.counters eng;
  }
