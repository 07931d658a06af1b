open Adaptive_sim

let copper_ber = 1e-8
let wan_copper_ber = 1e-7
let fiber_ber = 1e-9

let ethernet () =
  Link.create ~name:"ethernet" ~bandwidth_bps:10e6 ~propagation:(Time.us 5)
    ~queue_pkts:50 ~ber:copper_ber ~mtu:1500 ()

let fddi () =
  Link.create ~name:"fddi" ~bandwidth_bps:100e6 ~propagation:(Time.us 50)
    ~queue_pkts:80 ~ber:fiber_ber ~mtu:4500 ()

let t1_internet () =
  Link.create ~name:"t1-internet" ~bandwidth_bps:1.5e6 ~propagation:(Time.ms 25)
    ~queue_pkts:30 ~ber:wan_copper_ber ~mtu:576 ()

let t3_wan () =
  Link.create ~name:"t3-wan" ~bandwidth_bps:45e6 ~propagation:(Time.ms 15)
    ~queue_pkts:100 ~ber:wan_copper_ber ~mtu:4470 ()

let satellite () =
  Link.create ~name:"satellite" ~bandwidth_bps:10e6 ~propagation:(Time.ms 280)
    ~queue_pkts:100 ~ber:wan_copper_ber ~mtu:1500 ()

let custom = Link.create

let lan_path () = [ ethernet () ]
let campus_path () = [ ethernet (); fddi (); ethernet () ]

let internet_path () =
  [ ethernet (); t1_internet (); t3_wan (); t1_internet (); ethernet () ]

let wan_atm_hop () =
  Link.create ~name:"atm-155-span" ~bandwidth_bps:155e6 ~propagation:(Time.ms 10)
    ~queue_pkts:128 ~ber:fiber_ber ~mtu:9180 ()

let bisdn_path () =
  [ ethernet (); wan_atm_hop (); wan_atm_hop (); wan_atm_hop (); ethernet () ]

let atm_lfn_path () = [ wan_atm_hop (); wan_atm_hop (); wan_atm_hop () ]

let satellite_path () = [ ethernet (); satellite (); ethernet () ]
