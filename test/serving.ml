(* Test servers: every socket-backed node in the suites is assembled by
   [Node.start], exactly as [jim serve|standby|router] assemble theirs. *)

module Node = Jim_shard.Node

(* An in-memory primary: no data dir, no replication. *)
let memory = Node.Primary { data_dir = None; replicate_to = None }

let start ?(settings = Node.default_settings) ?(fsync = true) role listen =
  match Node.start { (Node.config role) with listen; settings; fsync } with
  | Ok node -> node
  | Error e -> Alcotest.failf "node: %s" e

let address node = Option.get (Node.address node)
let service node = Option.get (Node.service node)
