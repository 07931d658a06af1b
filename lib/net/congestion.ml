open Adaptive_sim

let constant link u = Link.set_background_utilization link u

let phases engine link steps =
  List.iter
    (fun (at, u) ->
      ignore
        (Engine.schedule engine ~at (fun () -> Link.set_background_utilization link u)))
    steps
