(** Deterministic sharding and ordered merges over {!Pool}. *)

let ranges ~shards n =
  if n <= 0 then [||]
  else begin
    let s = max 1 (min shards n) in
    let base = n / s and rem = n mod s in
    Array.init s (fun i ->
        let start = (i * base) + min i rem in
        let len = base + (if i < rem then 1 else 0) in
        (start, len))
  end

let map_chunks pool ~shards f arr =
  let chunk (start, len) = f (Array.sub arr start len) in
  match ranges ~shards (Array.length arr) with
  | [||] -> [||]
  | [| r |] -> [| chunk r |]
  | rs ->
    let futs = Array.map (fun r -> Pool.submit pool (fun () -> chunk r)) rs in
    Array.map Pool.await futs
