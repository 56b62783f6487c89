(* Unit and property tests for the util library: Rng, Histogram, Stats,
   Fit, Int_heap, Table. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expected actual =
  Alcotest.(check (float 1e-6)) msg expected actual

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_bernoulli_mean () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_rng_geometric_mean () =
  let r = Rng.create 5 in
  let sum = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r 0.25
  done;
  (* mean failures before success = (1-p)/p = 3 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~3" true (Float.abs (mean -. 3.0) < 0.15)

let test_rng_geometric_p1 () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0 at p=1" 0 (Rng.geometric r 1.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.gaussian r ~mu:2.0 ~sigma:1.5) in
  Alcotest.(check bool) "mean" true (Float.abs (Stats.mean xs -. 2.0) < 0.05);
  Alcotest.(check bool) "stdev" true (Float.abs (Stats.stdev xs -. 1.5) < 0.05)

let test_rng_choose_weighted () =
  let r = Rng.create 17 in
  let counts = Array.make 3 0 in
  let arr = [| (1.0, 0); (2.0, 1); (7.0, 2) |] in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.choose_weighted r arr in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "weight 0.1" true (Float.abs (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "weight 0.7" true (Float.abs (frac 2 -. 0.7) < 0.01)

let test_rng_choose_weighted_errors () =
  let r = Rng.create 17 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.choose_weighted: empty array") (fun () ->
      ignore (Rng.choose_weighted r [||]));
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.choose_weighted: weights sum to zero") (fun () ->
      ignore (Rng.choose_weighted r [| (0.0, 1) |]))

let test_rng_shuffle_permutation () =
  let r = Rng.create 23 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independence () =
  let r = Rng.create 99 in
  let a = Rng.split r and b = Rng.split r in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

(* The first 64 draws of each generator entry point for two fixed seeds,
   recorded from the boxed-int64 implementation: a faster generator must
   produce exactly these streams, or every profile and golden moves. *)
let rng_pinned =
  [
    ( 1,
      [|
        2612804094800205616; 3439311302766607129; 4477959822570722647;
        2049245188455445058; 2048809309281742190; 3518229400716132512;
        4046056672035966761; 2412221600017015133; 1316676407973089130;
        3661663045011659237; 1863776790465844184; 2792008650874675967;
        2098030787133347696; 2444557901440084130; 2010535538889790954;
        770312924007649934; 2976080737507164888; 3760140885435280060;
        3143809294431675003; 4078227225428351298; 304187700502225361;
        375458821562863911; 2286842639562384371; 567739532636373419;
        1323145083568696935; 220905215188921789; 2377415898501913677;
        3291686831833972202; 201753311246218057; 4601300005926624738;
        2757106507520767009; 2705192615808197230; 1831619907909962523;
        2024468963466360839; 1168016233937567493; 2443074741615968195;
        2507238978215934013; 3450626404420244720; 3772513647100356422;
        3083250903618602191; 3974481450645818145; 3265900347994376769;
        1090020573985382488; 3026352214955393004; 4007135219679336480;
        3870732499490578318; 1496184191253633559; 734085066574227429;
        4122566125614386204; 4209040466995017054; 1392066365408313693;
        606828435927674809; 1501950738515540542; 4335786910169597412;
        1815446266559517347; 404587060835679019; 2799522774030442155;
        717013418320700723; 4419526762195327124; 4038062713024508436;
        2427849681724289925; 315300964529434079; 3469608586270031855;
        2462946970009318550
      |],
      [|
        0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
        0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1;
        0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2;
        0x1.9686b91ce8c2cp-1; 0x1.9dd771dc05592p-2; 0x1.35f9a89a299f1p-1;
        0x1.d1db3e292ea96p-2; 0x1.0f6683ad21af4p-1; 0x1.be6db6b9bd314p-2;
        0x1.561670bd2bca4p-3; 0x1.4a694d4d6ffa1p-1; 0x1.a175a1b4ae575p-1;
        0x1.5d086f2c615f1p-1; 0x1.c4c6306ee7decp-1; 0x1.0e2c46865e98p-4;
        0x1.4d7973c5c2a4p-4; 0x1.fbc7f43b45522p-2; 0x1.f8410633ef3p-4;
        0x1.25cc171746aaep-2; 0x1.88680fb82ef6p-5; 0x1.07f2394f0c94ep-1;
        0x1.6d735dde1a5bep-1; 0x1.6662c8a88b79p-5; 0x1.fed8cfd03212ep-1;
        0x1.3219ae16258bap-1; 0x1.2c5632cf920f1p-1; 0x1.96b389a1681cap-2;
        0x1.c185bcbd23738p-2; 0x1.035a0938bbcfep-2; 0x1.0f3c5c44adfdfp-1;
        0x1.165c0488bc97cp-1; 0x1.7f18b376006aap-1; 0x1.a2d549652dd73p-1;
        0x1.564f42e37cb62p-1; 0x1.b9418e92c0fc5p-1; 0x1.6a967881103c5p-1;
        0x1.e410fdfac884p-3; 0x1.4ffe1a710d0ffp-1; 0x1.bce1a2033f8ccp-1;
        0x1.adbcd59a2590fp-1; 0x1.4c38398463a5ap-2; 0x1.45ffcf51826ccp-3;
        0x1.c9b26064426e6p-1; 0x1.d34c2008c3dbap-1; 0x1.3519cfbddee8p-2;
        0x1.0d7c67ea6265cp-3; 0x1.4d8003d2f5abap-2; 0x1.e15e79c853942p-1;
        0x1.931c2c2c316d2p-2; 0x1.67587272751e8p-4; 0x1.36cf390b359afp-1;
        0x1.3e6afcf646348p-3; 0x1.eaaa81657fe0cp-1; 0x1.c050a524b49b9p-1;
        0x1.0d8ba360b9c59p-1; 0x1.180b23a1075bp-4; 0x1.81343502f229fp-1;
        0x1.117129c2803dap-1
      |],
      "0000000010000001000011011100100000100000001000010001000101000100",
      [|
        11; 5; 0; 15; 15; 5; 2; 12; 24; 4; 17; 9; 15; 12; 16; 34; 8; 3; 7; 2;
        53; 48; 13; 40; 24; 59; 12; 6; 61; 0; 10; 10; 18; 16; 26; 12; 11; 5;
        3; 7; 2; 6; 28; 8; 2; 3; 21; 35; 2; 1; 23; 39; 21; 1; 18; 47; 9; 36;
        0; 2; 12; 52; 5; 12
      |],
      [|
        1697974441462356039; 2153502007173247514; 3004400282228769863;
        1132654443127496440; 1152954867435498666; 4583585869649899761;
        4415851430380983997; 4243244265868361885; 4092231733889310835;
        789782037971774201; 4039773545897311299; 2035494004428424726;
        532063908345967083; 300797992796658461; 4323541661943385891;
        1690656862427629077; 2129200955688518668; 4017963683394421223;
        555600774650862897; 4436802427432578946; 2511934717037787115;
        937676569726095877; 4017967093808570826; 4486667330242235556;
        710090779871398532; 1915502888059280809; 744406280334069222;
        1184389141890095778; 1644963293357981486; 3661774336016857900;
        3667160843049839168; 1004647674400187030; 4001498867048750649;
        4546201246117582194; 4033146443481865044; 3517009656535083192;
        3357821010567062962; 148476463552058581; 98626957710549894;
        4597799588040915105; 3665920634951706808; 3670943093183124784;
        3721559563421596238; 3154514771086583012; 4358908348612945084;
        1613030153144818117; 3835551303215997399; 9841371127773503;
        329033912111671788; 566385639417947062; 3154581714615675793;
        2449321794028661107; 97732882899673420; 1243308667539902240;
        3976001071906258887; 1167031091995077269; 3063556070533522405;
        2699752151698627271; 1098276422689676400; 2286457186273443261;
        2600984418666267309; 3856859856113333548; 71717451720141344;
        2387592240296982508
      |] );
    ( (-24301),
      [|
        2365387344093851667; 385423369357687441; 1205221281291637291;
        2938893190932919356; 1564065351581440292; 1970697965726683991;
        4318083270229761037; 1620667465294873984; 1856415686548332079;
        3766628893168735369; 330641023368266949; 1811395824959352628;
        2196630988877314182; 623541693388602434; 2600615571932509496;
        4127491877396383133; 4478833699258996099; 1436669024638235300;
        1452011944495177791; 373511331373554428; 1690338538862509185;
        3324783043546690513; 3705143749537210129; 1773067624950215736;
        506381531693032550; 2115609152106338570; 629156564561138376;
        1258159701751414807; 530333667486602931; 4073130874049353917;
        4514838880372828469; 3146292783344747878; 3905936770774113310;
        180479903074949388; 951885952752166670; 640314462699758702;
        3249420842653864288; 3272006552597096689; 3005252446691883671;
        2737603998283800973; 1127963712099334850; 2875414939758618146;
        3738081742296233397; 796956877694403107; 1235117150999832503;
        2234314440117752074; 4272792521238391607; 1687121261537070206;
        4466015815902550708; 4393027338130920969; 3475174281225270601;
        4016679534712769367; 3608797675333917288; 2503715118744297298;
        1871802916326893175; 3544202530935439181; 1404539427577925644;
        3046666623556379508; 2809613173807806426; 2064138689575579515;
        3279235400599341793; 2957196473901361252; 2672915886594437369;
        2062732650014928088
      |],
      [|
        0x1.069c5a0e87598p-1; 0x1.565320caacbe8p-4; 0x1.0b9ce5eab2112p-2;
        0x1.46485e4a32f7ap-1; 0x1.5b4ad26868218p-2; 0x1.b59535bceb952p-2;
        0x1.df674ed944d0ep-1; 0x1.67dc47917ef04p-2; 0x1.9c3503b302d1ep-2;
        0x1.a22e082cd05cap-1; 0x1.25ab10928261p-4; 0x1.9235ee7d653eep-2;
        0x1.e7c003f02a5b8p-2; 0x1.14e87bba22578p-3; 0x1.20b9f0ac1317ap-1;
        0x1.ca3e5ff3ec2c2p-1; 0x1.f1401c28230cap-1; 0x1.3f012ddb95e72p-2;
        0x1.426952ba1426p-2; 0x1.4bbea4ec86a68p-4; 0x1.77549f1ff0d7cp-2;
        0x1.712004804ebd9p-1; 0x1.9b5a84e04764fp-1; 0x1.89b339c5be734p-2;
        0x1.c1c1d47d5869p-4; 0x1.d5c27509add18p-2; 0x1.1766d1fc58b24p-3;
        0x1.175e1952d9acp-2; 0x1.d707ea49be058p-4; 0x1.c4355798bb1acp-1;
        0x1.f53f705415f54p-1; 0x1.5d4f04eef51c2p-1; 0x1.b1a566634904ep-1;
        0x1.4098c1fff08cp-5; 0x1.a6b8e7620f44cp-3; 0x1.1c5b538fb8748p-3;
        0x1.68c2185261128p-1; 0x1.6b4404fd72674p-1; 0x1.4da6696c0b8bdp-1;
        0x1.2fef62a7eb29p-1; 0x1.f4eaa0a366c74p-3; 0x1.3f3c3539914f3p-1;
        0x1.9f02ac50b785ap-1; 0x1.61eb81d988f04p-3; 0x1.1240481415666p-2;
        0x1.f01e12537be9p-2; 0x1.da6011475ae15p-1; 0x1.769dbd93eed0cp-2;
        0x1.efd3cdc7e12edp-1; 0x1.e7b958b5cefcbp-1; 0x1.81d264c5a80bap-1;
        0x1.bdf0e60b59165p-1; 0x1.90a832ec8444dp-1; 0x1.15f7dd14fc3afp-1;
        0x1.9f9fad5cd3466p-2; 0x1.897c4b642393fp-1; 0x1.37ded2af5d01p-2;
        0x1.523f7937b0ef1p-1; 0x1.37ee025d6893bp-1; 0x1.ca54b33af4aeep-2;
        0x1.6c1179c81ce05p-1; 0x1.485094336f6d4p-1; 0x1.28c0d6b277ad8p-1;
        0x1.ca04c6a96bd6cp-2
      |],
      "0110000000100100000100001011100001110000100110000000000000000000",
      [|
        13; 48; 26; 8; 21; 16; 1; 20; 17; 3; 51; 18; 14; 39; 11; 2; 0; 22;
        22; 49; 19; 6; 4; 18; 43; 15; 38; 25; 42; 2; 0; 7; 3; 63; 30; 38; 6;
        6; 8; 10; 27; 9; 4; 34; 25; 14; 1; 19; 0; 0; 5; 2; 4; 11; 17; 5; 23;
        8; 9; 15; 6; 8; 10; 15
      |],
      [|
        4318509788418780747; 1722331227406664386; 2532823374823501426;
        990509562445319431; 1791595127303182594; 3199861079020483885;
        880594315360719395; 2404227783618565646; 2749644681169384245;
        2818323241719654814; 3191786535139448625; 1943515072159732101;
        2893450478968161377; 3740704975913971213; 473148434906234210;
        4066407640456620340; 4044278759126934474; 3211931633168584949;
        595336954984824320; 1298674257276528565; 1213784243107614918;
        3192981533993896364; 1626911101190743360; 2459154487648734195;
        2036518658070891397; 4536325060944168745; 2824015343646709649;
        4487627896898490863; 45913771625657581; 1295027707482503205;
        902639203394315272; 1338867694631146203; 3973077407907678128;
        486855573263366264; 971729335725834465; 735567573619915890;
        3298501927068003429; 765597496346114269; 1315969767778314222;
        1910652503791729303; 3556487325027355276; 677379352395890895;
        1208976528927123186; 420066297527060976; 3732370744925178940;
        3533667673242949050; 4114716576925198014; 4032881766997136922;
        3448593978266270695; 1836302359893712326; 1069829288134807497;
        2568156790928618292; 2703905299850182282; 1590019574568362740;
        425443933490596236; 4183791807315344507; 3972455743969521138;
        1475021485889576031; 3797246116477400278; 1250991757498114668;
        3713524589253409536; 3785533096337160783; 3251404797797387741;
        630694128120990670
      |] );
  ]

let test_rng_pinned_streams () =
  List.iter
    (fun (seed, ints, floats, bernoullis, geometrics, splits) ->
      let draws f = let r = Rng.create seed in Array.init 64 (fun _ -> f r) in
      let ctx what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (array int)) (ctx "int") ints
        (draws (fun r -> Rng.int r max_int));
      (* Compared by bits, so a last-ulp change fails. *)
      Alcotest.(check (array int64)) (ctx "float")
        (Array.map Int64.bits_of_float floats)
        (Array.map Int64.bits_of_float (draws (fun r -> Rng.float r 1.0)));
      Alcotest.(check string) (ctx "bernoulli") bernoullis
        (String.concat ""
           (Array.to_list
              (draws (fun r -> if Rng.bernoulli r 0.3 then "1" else "0"))));
      Alcotest.(check (array int)) (ctx "geometric") geometrics
        (draws (fun r -> Rng.geometric r 0.05));
      Alcotest.(check (array int)) (ctx "split") splits
        (draws (fun r -> Rng.int (Rng.split r) max_int)))
    rng_pinned

(* ---- Histogram ---- *)

let test_hist_basic () =
  let h = Histogram.create () in
  Histogram.add h 5;
  Histogram.add h 5;
  Histogram.add h ~count:3 7;
  Alcotest.(check int) "count 5" 2 (Histogram.count h 5);
  Alcotest.(check int) "count 7" 3 (Histogram.count h 7);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 1);
  Alcotest.(check int) "total" 5 (Histogram.total h);
  Alcotest.(check int) "distinct" 2 (Histogram.distinct h)

let test_hist_mean () =
  let h = Histogram.create () in
  Histogram.add h ~count:2 10;
  Histogram.add h ~count:2 20;
  check_float "mean" 15.0 (Histogram.mean h);
  let empty = Histogram.create () in
  check_float "empty mean" 0.0 (Histogram.mean empty)

let test_hist_fraction_above () =
  let h = Histogram.create () in
  Histogram.add h ~count:3 1;
  Histogram.add h ~count:1 10;
  check_float "above 5" 0.25 (Histogram.fraction_above h 5);
  check_float "above 10" 0.0 (Histogram.fraction_above h 10);
  check_float "above 0" 1.0 (Histogram.fraction_above h 0)

let test_hist_sorted_iteration () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 5; -3; 9; 0 ];
  let keys = List.map fst (Histogram.to_sorted_list h) in
  Alcotest.(check (list int)) "sorted" [ -3; 0; 5; 9 ] keys

let test_hist_merge_scale () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a ~count:2 1;
  Histogram.add b ~count:3 1;
  Histogram.add b 2;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Histogram.count m 1);
  Alcotest.(check int) "merged total" 6 (Histogram.total m);
  let s = Histogram.scale a 4 in
  Alcotest.(check int) "scaled" 8 (Histogram.count s 1)

let test_hist_quantile () =
  let h = Histogram.create () in
  Histogram.add h ~count:50 1;
  Histogram.add h ~count:40 2;
  Histogram.add h ~count:10 3;
  Alcotest.(check int) "median" 1 (Histogram.quantile_key h 0.5);
  Alcotest.(check int) "p90" 2 (Histogram.quantile_key h 0.9);
  Alcotest.(check int) "p99" 3 (Histogram.quantile_key h 0.99)

let test_hist_normalize () =
  let h = Histogram.create () in
  Histogram.add h ~count:1 0;
  Histogram.add h ~count:3 1;
  let n = Histogram.normalize h in
  Alcotest.(check int) "entries" 2 (List.length n);
  Alcotest.(check bool) "sums to one" true
    (feq ~eps:1e-9 1.0 (List.fold_left (fun a (_, p) -> a +. p) 0.0 n))

let test_hist_top_k () =
  let h = Histogram.create () in
  Histogram.add h ~count:5 10;
  Histogram.add h ~count:9 20;
  Histogram.add h ~count:1 30;
  Alcotest.(check (list (pair int int))) "top 2" [ (20, 9); (10, 5) ]
    (Histogram.top_k h 2)

let prop_hist_total =
  QCheck.Test.make ~name:"histogram total equals sum of counts" ~count:200
    QCheck.(small_list (pair (int_range (-100) 100) (int_range 0 20)))
    (fun entries ->
      let h = Histogram.create () in
      List.iter (fun (k, c) -> Histogram.add h ~count:c k) entries;
      Histogram.total h = List.fold_left (fun a (_, c) -> a + c) 0 entries)

let prop_hist_merge_commutes =
  QCheck.Test.make ~name:"histogram merge commutes" ~count:100
    QCheck.(
      pair
        (small_list (pair (int_range 0 50) (int_range 1 5)))
        (small_list (pair (int_range 0 50) (int_range 1 5))))
    (fun (ea, eb) ->
      let build entries =
        let h = Histogram.create () in
        List.iter (fun (k, c) -> Histogram.add h ~count:c k) entries;
        h
      in
      let ab = Histogram.merge (build ea) (build eb) in
      let ba = Histogram.merge (build eb) (build ea) in
      Histogram.to_sorted_list ab = Histogram.to_sorted_list ba)

(* Negative, zero, small and large keys are all counted and sorted
   together. *)
let test_hist_key_ranges () =
  let h = Histogram.create () in
  let keys = [ 0; 63; 64; 4095; 4096; 100_000; -1; -4096 ] in
  List.iter (fun k -> Histogram.add h ~count:(abs k + 1) k) keys;
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "count %d" k)
        (abs k + 1) (Histogram.count h k))
    keys;
  Alcotest.(check int) "distinct" (List.length keys) (Histogram.distinct h);
  Alcotest.(check (list int)) "sorted across ranges"
    [ -4096; -1; 0; 63; 64; 4095; 4096; 100_000 ]
    (List.map fst (Histogram.to_sorted_list h));
  Alcotest.(check int) "absent small key" 0 (Histogram.count h 1);
  Alcotest.(check int) "absent negative key" 0 (Histogram.count h (-7))

let test_hist_zero_count_is_noop () =
  let h = Histogram.create () in
  Histogram.add h ~count:0 5;
  Histogram.add h ~count:0 9999;
  Alcotest.(check int) "distinct" 0 (Histogram.distinct h);
  Alcotest.(check bool) "still empty" true (Histogram.is_empty h);
  Alcotest.(check (list (pair int int))) "no entries" []
    (Histogram.to_sorted_list h)

let test_hist_copy_independent () =
  let h = Histogram.create () in
  Histogram.add h 10;
  Histogram.add h 5000;
  let c = Histogram.copy h in
  Histogram.add c 10;
  Histogram.add c ~count:2 (-4);
  Alcotest.(check int) "original small key untouched" 1 (Histogram.count h 10);
  Alcotest.(check int) "original negative key untouched" 0 (Histogram.count h (-4));
  Alcotest.(check int) "copy small key" 2 (Histogram.count c 10);
  Alcotest.(check int) "copy total" 5 (Histogram.total c)

(* Storage follows the number of distinct keys, not their magnitude: a
   profile holds thousands of one-key histograms. *)
let test_hist_sparse_footprint () =
  let h = Histogram.create () in
  Histogram.add h 4000;
  let words = Obj.reachable_words (Obj.repr h) in
  if words > 64 then
    Alcotest.failf "one-key histogram takes %d words (at most 64)" words

(* Pins the cached-sorted-view invalidation: interleave adds with reads
   of every sorted accessor and compare against a naive association-list
   model after each step. *)
let prop_hist_cached_view_equivalence =
  QCheck.Test.make
    ~name:"sorted views match model"
    ~count:300
    QCheck.(
      small_list
        (pair (int_range (-100) 5000) (int_range 1 9)))
    (fun entries ->
      let h = Histogram.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, c) ->
          Histogram.add h ~count:c k;
          Hashtbl.replace model k
            (c + Option.value (Hashtbl.find_opt model k) ~default:0);
          let expected =
            Hashtbl.fold (fun k c acc -> (k, c) :: acc) model []
            |> List.sort compare
          in
          let total = List.fold_left (fun a (_, c) -> a + c) 0 expected in
          let iter_acc = ref [] in
          Histogram.iter h (fun k c -> iter_acc := (k, c) :: !iter_acc);
          let fold_acc =
            Histogram.fold h ~init:[] ~f:(fun acc k c -> (k, c) :: acc)
          in
          let quantile_model q =
            let target = q *. float_of_int total in
            let rec go acc = function
              | [] -> assert false
              | [ (k, _) ] -> k
              | (k, c) :: rest ->
                let acc = acc +. float_of_int c in
                if acc >= target then k else go acc rest
            in
            go 0.0 expected
          in
          Histogram.to_sorted_list h = expected
          && List.rev !iter_acc = expected
          && List.rev fold_acc = expected
          && Histogram.total h = total
          && Histogram.distinct h = List.length expected
          && List.for_all
               (fun q -> Histogram.quantile_key h q = quantile_model q)
               [ 0.1; 0.5; 0.9; 1.0 ])
        entries)

(* ---- Stats ---- *)

let test_stats_mean_stdev () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean []);
  check_float "stdev" (sqrt (2.0 /. 3.0)) (Stats.stdev [ 1.0; 2.0; 3.0 ]);
  check_float "single stdev" 0.0 (Stats.stdev [ 5.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  check_float "interp" 1.5 (Stats.percentile xs 12.5)

let test_stats_median_even () =
  check_float "median of 4" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_mean_abs () =
  check_float "mean abs" 2.0 (Stats.mean_abs [ -1.0; 3.0; -2.0 ]);
  check_float "max abs" 3.0 (Stats.max_abs [ -1.0; 3.0; -2.0 ])

let test_stats_relative_error () =
  check_float "10% high" 0.1 (Stats.relative_error ~predicted:1.1 ~reference:1.0);
  check_float "both zero" 0.0 (Stats.relative_error ~predicted:0.0 ~reference:0.0)

let test_stats_box () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 100.0 ] in
  let b = Stats.box_summary xs in
  Alcotest.(check bool) "outlier found" true (List.mem 100.0 b.outliers);
  Alcotest.(check bool) "whisker below fence" true (b.whisker_hi <= 10.0)

let test_stats_cdf () =
  let cdf = Stats.cumulative_distribution [ 3.0; 1.0; 2.0; 2.0 ] in
  Alcotest.(check int) "distinct points" 3 (List.length cdf);
  let last_v, last_f = List.nth cdf 2 in
  check_float "last value" 3.0 last_v;
  check_float "last fraction" 1.0 last_f

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

(* ---- Fit ---- *)

let test_fit_linear_exact () =
  let f = Fit.linear [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 f.slope;
  check_float "intercept" 1.0 f.intercept;
  check_float "r2 perfect" 1.0 (Fit.r_squared f [ (0.0, 1.0); (1.0, 3.0) ])

let test_fit_linear_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Fit.linear: need at least two points") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "no variance"
    (Invalid_argument "Fit.linear: zero x-variance") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]))

let test_fit_log () =
  (* y = 2 + 3 log x *)
  let pts = List.map (fun x -> (x, 2.0 +. (3.0 *. log x))) [ 1.0; 2.0; 8.0; 64.0 ] in
  let f = Fit.logarithmic pts in
  Alcotest.(check bool) "a" true (feq ~eps:1e-6 2.0 f.a);
  Alcotest.(check bool) "b" true (feq ~eps:1e-6 3.0 f.b);
  Alcotest.(check bool) "eval" true (feq ~eps:1e-6 (2.0 +. (3.0 *. log 5.0)) (Fit.eval_log f 5.0))

let test_fit_interpolate_log () =
  (* Exact through both endpoints. *)
  let y = Fit.interpolate_log (16.0, 2.0) (256.0, 6.0) 16.0 in
  check_float "left endpoint" 2.0 y;
  let y = Fit.interpolate_log (16.0, 2.0) (256.0, 6.0) 256.0 in
  check_float "right endpoint" 6.0 y;
  let y = Fit.interpolate_log (16.0, 2.0) (256.0, 6.0) 64.0 in
  check_float "midpoint in log space" 4.0 y

let test_fit_multiple_linear () =
  (* y = 1 + 2a + 3b *)
  let rows =
    [ ([| 0.0; 0.0 |], 1.0); ([| 1.0; 0.0 |], 3.0); ([| 0.0; 1.0 |], 4.0);
      ([| 1.0; 1.0 |], 6.0); ([| 2.0; 1.0 |], 8.0) ]
  in
  let w = Fit.multiple_linear rows in
  Alcotest.(check bool) "intercept" true (feq ~eps:1e-4 1.0 w.(0));
  Alcotest.(check bool) "wa" true (feq ~eps:1e-4 2.0 w.(1));
  Alcotest.(check bool) "wb" true (feq ~eps:1e-4 3.0 w.(2));
  Alcotest.(check bool) "eval" true
    (feq ~eps:1e-4 13.0 (Fit.eval_multiple w [| 3.0; 2.0 |]))

let prop_linear_fit_residual_orthogonal =
  QCheck.Test.make ~name:"linear fit beats perturbations"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 3 20) (pair (float_range 0. 10.) (float_range (-5.) 5.)))
    (fun pts ->
      (* Need x variance. *)
      let xs = List.map fst pts in
      let distinct = List.sort_uniq compare xs in
      QCheck.assume (List.length distinct >= 2);
      let f = Fit.linear pts in
      let sse slope intercept =
        List.fold_left
          (fun acc (x, y) -> acc +. ((y -. ((slope *. x) +. intercept)) ** 2.0))
          0.0 pts
      in
      let best = sse f.slope f.intercept in
      best <= sse (f.slope +. 0.01) f.intercept +. 1e-9
      && best <= sse f.slope (f.intercept +. 0.01) +. 1e-9)

(* ---- Int_heap ---- *)

let test_heap_order () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 5; 1; 9; 3; 7; 1 ];
  let drained = List.init 6 (fun _ -> Int_heap.pop h) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 5; 7; 9 ] drained;
  Alcotest.(check bool) "empty" true (Int_heap.is_empty h)

let test_heap_pop_while_le () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 2; 4; 6; 8 ];
  Alcotest.(check int) "popped" 2 (Int_heap.pop_while_le h 5);
  Alcotest.(check int) "min left" 6 (Int_heap.min_elt h)

let test_heap_errors () =
  let h = Int_heap.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_heap.pop: empty heap")
    (fun () -> ignore (Int_heap.pop h))

let test_heap_growth () =
  let h = Int_heap.create () in
  for i = 1000 downto 1 do
    Int_heap.push h i
  done;
  Alcotest.(check int) "size" 1000 (Int_heap.size h);
  Alcotest.(check int) "min" 1 (Int_heap.min_elt h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let h = Int_heap.create () in
      List.iter (Int_heap.push h) xs;
      let drained = List.init (List.length xs) (fun _ -> Int_heap.pop h) in
      drained = List.sort compare xs)

(* ---- Table ---- *)

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  (* short row padded, no exception *)
  Alcotest.(check bool) "has three lines + rows" true
    (List.length (String.split_on_char '\n' out) >= 4)

let test_table_formats () =
  Alcotest.(check string) "float" "1.235" (Table.fmt_f 1.2349);
  Alcotest.(check string) "pct" "9.3%" (Table.fmt_pct 0.093)

(* ---- Parallel ---- *)

(* [Parallel.map_array] over a list, to compare with [List.map]. *)
let parallel_map ?jobs f xs =
  Array.to_list (Parallel.map_array ?jobs f (Array.of_list xs))

let test_parallel_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * 37) + 1 in
  Alcotest.(check (list int)) "jobs=4 preserves order" (List.map f xs)
    (parallel_map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 fallback" (List.map f xs)
    (parallel_map ~jobs:1 f xs);
  Alcotest.(check (list int)) "default sequential" (List.map f xs)
    (parallel_map f xs);
  (* more workers than elements: each worker gets at most one item *)
  Alcotest.(check (list int)) "jobs > length" (List.map f [ 1; 2; 3 ])
    (parallel_map ~jobs:64 f [ 1; 2; 3 ])

let test_parallel_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (parallel_map ~jobs:8 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (parallel_map ~jobs:8 (fun x -> x + 1) [ 6 ])

let test_parallel_map_array () =
  let xs = Array.init 37 Fun.id in
  Alcotest.(check (array int)) "array order"
    (Array.map (fun x -> 2 * x) xs)
    (Parallel.map_array ~jobs:4 (fun x -> 2 * x) xs)

exception Boom of int

let test_parallel_map_propagates_exception () =
  let xs = List.init 64 Fun.id in
  match parallel_map ~jobs:4 (fun x -> if x = 40 then raise (Boom x) else x) xs with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 40 -> ()

let prop_parallel_map_equals_list_map =
  QCheck.Test.make ~name:"map_array = Array.map for any jobs" ~count:100
    QCheck.(pair (int_range 1 9) (small_list small_int))
    (fun (jobs, xs) ->
      parallel_map ~jobs (fun x -> (x * x) - (3 * x)) xs
      = List.map (fun x -> (x * x) - (3 * x)) xs)

(* ---- Minijson ---- *)

(* Bytes the printer must escape (quote, backslash, control bytes) mixed
   with plain ASCII and non-ASCII bytes. *)
let gen_json_string =
  QCheck.Gen.(
    string_size (int_bound 8)
      ~gen:
        (oneof
           [
             oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '/'; '\127' ];
             printable;
             map Char.chr (int_range 0x80 0xff);
           ]))

(* Negative and positive; integral (exact below 2^53, rounded above) and
   fractional, from tiny to huge magnitudes. *)
let gen_json_float =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map2 ldexp (float_range (-1.0) 1.0) (int_range (-60) 80);
        map2 (fun m e -> Float.round (ldexp m e)) (float_range (-1.0) 1.0)
          (int_range 0 70);
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Minijson.Null;
                 map (fun b -> Minijson.Bool b) bool;
                 map (fun f -> Minijson.Num f) gen_json_float;
                 map (fun s -> Minijson.Str s) gen_json_string;
               ]
           in
           if n <= 1 then leaf
           else
             let child = self (n / 3) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Minijson.Arr l) (list_size (int_bound 4) child));
                 ( 1,
                   map
                     (fun l -> Minijson.Obj l)
                     (list_size (int_bound 4) (pair gen_json_string child)) );
               ]))

(* Equality with numbers compared through the printer's %.9g rounding. *)
let rec json_equal a b =
  match (a, b) with
  | Minijson.Num x, Minijson.Num y ->
    Printf.sprintf "%.9g" x = Printf.sprintf "%.9g" y
  | Arr xs, Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let prop_json_print_parse =
  QCheck.Test.make ~name:"Minijson.parse (print v) = v" ~count:500
    (QCheck.make ~print:Minijson.print gen_json)
    (fun v ->
      match Minijson.parse ~context:"test" (Minijson.print v) with
      | Ok w -> json_equal v w
      | Error ft -> QCheck.Test.fail_reportf "%s" (Fault.to_string ft))

let test_json_layout () =
  Alcotest.(check string) "non-finite numbers print as null"
    "[\n  null,\n  null,\n  null\n]\n"
    (Minijson.print (Arr [ Num nan; Num infinity; Num neg_infinity ]));
  Alcotest.(check string) "indent, member order, numbers"
    "{\n  \"b\": [],\n  \"a\": {\n    \"n\": 81,\n    \"x\": 0.12,\n    \
     \"big\": 1e+300,\n    \"e\": {}\n  },\n  \"s\": \"q\\\"\\u0001\"\n}\n"
    (Minijson.print
       (Obj
          [
            ("b", Arr []);
            ( "a",
              Obj
                [ ("n", Num 81.0); ("x", Num 0.12); ("big", Num 1e300); ("e", Obj []) ]
            );
            ("s", Str "q\"\001");
          ]))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects nonpositive" `Quick
            test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_p1;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "choose weighted" `Quick test_rng_choose_weighted;
          Alcotest.test_case "choose weighted errors" `Quick
            test_rng_choose_weighted_errors;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic counts" `Quick test_hist_basic;
          Alcotest.test_case "mean" `Quick test_hist_mean;
          Alcotest.test_case "fraction above" `Quick test_hist_fraction_above;
          Alcotest.test_case "sorted iteration" `Quick test_hist_sorted_iteration;
          Alcotest.test_case "merge and scale" `Quick test_hist_merge_scale;
          Alcotest.test_case "quantile" `Quick test_hist_quantile;
          Alcotest.test_case "normalize" `Quick test_hist_normalize;
          Alcotest.test_case "top k" `Quick test_hist_top_k;
          Alcotest.test_case "negative, small and large keys" `Quick
            test_hist_key_ranges;
          Alcotest.test_case "sparse large key stays small" `Quick
            test_hist_sparse_footprint;
          Alcotest.test_case "zero count is noop" `Quick
            test_hist_zero_count_is_noop;
          Alcotest.test_case "copy independence" `Quick test_hist_copy_independent;
          QCheck_alcotest.to_alcotest prop_hist_total;
          QCheck_alcotest.to_alcotest prop_hist_merge_commutes;
          QCheck_alcotest.to_alcotest prop_hist_cached_view_equivalence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean stdev" `Quick test_stats_mean_stdev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "mean abs" `Quick test_stats_mean_abs;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
          Alcotest.test_case "box summary" `Quick test_stats_box;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "linear errors" `Quick test_fit_linear_errors;
          Alcotest.test_case "log fit" `Quick test_fit_log;
          Alcotest.test_case "log interpolation" `Quick test_fit_interpolate_log;
          Alcotest.test_case "multiple linear" `Quick test_fit_multiple_linear;
          QCheck_alcotest.to_alcotest prop_linear_fit_residual_orthogonal;
        ] );
      ( "int_heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "pop while le" `Quick test_heap_pop_while_le;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_parallel_map_matches_sequential;
          Alcotest.test_case "empty and singleton" `Quick
            test_parallel_map_empty_and_singleton;
          Alcotest.test_case "map_array" `Quick test_parallel_map_array;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_map_propagates_exception;
          QCheck_alcotest.to_alcotest prop_parallel_map_equals_list_map;
        ] );
      ( "minijson",
        [
          Alcotest.test_case "layout" `Quick test_json_layout;
          QCheck_alcotest.to_alcotest prop_json_print_parse;
        ] );
    ]
